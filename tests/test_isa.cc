/**
 * @file
 * Unit tests for the ISA layer: instruction representation, program
 * builder, flag balance.
 */

#include <gtest/gtest.h>

#include "isa/program.hh"

namespace ascend {
namespace isa {
namespace {

TEST(Instr, StaysCompact)
{
    EXPECT_LE(sizeof(Instr), 80u);
}

TEST(Instr, PipeNames)
{
    EXPECT_STREQ(toString(Pipe::Scalar), "scalar");
    EXPECT_STREQ(toString(Pipe::Cube), "cube");
    EXPECT_STREQ(toString(Pipe::Vector), "vector");
    EXPECT_STREQ(toString(Pipe::Mte1), "mte1");
    EXPECT_STREQ(toString(Pipe::Mte2), "mte2");
    EXPECT_STREQ(toString(Pipe::Mte3), "mte3");
}

TEST(Instr, BusNames)
{
    EXPECT_STREQ(toString(Bus::L1Read), "l1Read");
    EXPECT_STREQ(toString(Bus::ExtB), "extB");
    EXPECT_STREQ(toString(Bus::ExtOut), "extOut");
}

TEST(Program, ExecRecordsFields)
{
    Program p("test");
    p.exec(Pipe::Cube, 100, 2048, {{Bus::L1Read, 64}}, "gemm");
    ASSERT_EQ(p.size(), 1u);
    const Instr &i = p.instrs()[0];
    EXPECT_EQ(i.op, Opcode::Exec);
    EXPECT_EQ(i.pipe, Pipe::Cube);
    EXPECT_EQ(i.cycles, 100u);
    EXPECT_EQ(i.flops, 2048u);
    EXPECT_EQ(i.numBusUses, 1u);
    EXPECT_EQ(i.busUses[0].bus, Bus::L1Read);
    EXPECT_EQ(i.busUses[0].bytes, 64u);
    EXPECT_STREQ(i.tag, "gemm");
}

TEST(Program, MultipleBusUses)
{
    Program p;
    p.exec(Pipe::Mte2, 10, 0,
           {{Bus::ExtA, 1}, {Bus::L1Write, 2}, {Bus::UbWrite, 3}});
    EXPECT_EQ(p.instrs()[0].numBusUses, 3u);
}

TEST(ProgramDeath, TooManyBusUsesPanics)
{
    Program p("over");
    EXPECT_DEATH(p.exec(Pipe::Mte2, 1, 0,
                        {{Bus::ExtA, 1},
                         {Bus::L1Write, 1},
                         {Bus::UbWrite, 1},
                         {Bus::UbRead, 1}}),
                 "bus uses");
}

TEST(Program, FlagInstructions)
{
    Program p;
    p.setFlag(Pipe::Mte1, 3);
    p.waitFlag(Pipe::Cube, 3);
    EXPECT_EQ(p.instrs()[0].op, Opcode::SetFlag);
    EXPECT_EQ(p.instrs()[0].flagId, 3u);
    EXPECT_EQ(p.instrs()[1].op, Opcode::WaitFlag);
    EXPECT_EQ(p.instrs()[1].pipe, Pipe::Cube);
}

TEST(Program, BarrierGoesToScalarPipe)
{
    Program p;
    p.barrier();
    EXPECT_EQ(p.instrs()[0].op, Opcode::Barrier);
    EXPECT_EQ(p.instrs()[0].pipe, Pipe::Scalar);
}

TEST(Program, FlagBalanceCountsSetsMinusWaits)
{
    Program p;
    p.setFlag(Pipe::Mte1, 1);
    p.setFlag(Pipe::Mte1, 1);
    p.waitFlag(Pipe::Cube, 1);
    p.setFlag(Pipe::Cube, 2);
    const auto balance = p.flagBalance();
    EXPECT_EQ(balance[1], 1);
    EXPECT_EQ(balance[2], 1);
    EXPECT_EQ(balance[0], 0);
}

TEST(Program, AppendConcatenates)
{
    Program a("a"), b("b");
    a.exec(Pipe::Cube, 1);
    b.exec(Pipe::Vector, 2);
    b.setFlag(Pipe::Vector, 9);
    a.append(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.instrs()[1].pipe, Pipe::Vector);
    EXPECT_EQ(a.name(), "a");
}

TEST(Program, EmptyAndName)
{
    Program p;
    EXPECT_TRUE(p.empty());
    p.setName("renamed");
    EXPECT_EQ(p.name(), "renamed");
    p.exec(Pipe::Scalar, 1);
    EXPECT_FALSE(p.empty());
}

TEST(ProgramBlocks, FlattenUnrollsNestedBlocks)
{
    Program p("nest");
    p.setFlag(Pipe::Scalar, 1);
    p.beginBlock(3);
    p.exec(Pipe::Mte2, 5);
    p.beginBlock(2);
    p.exec(Pipe::Cube, 7);
    p.endBlock();
    p.endBlock();
    p.exec(Pipe::Vector, 9);
    EXPECT_TRUE(p.hasBlocks());
    EXPECT_EQ(p.code().size(), 4u);
    ASSERT_EQ(p.blocks().size(), 2u);
    EXPECT_EQ(p.blocks()[0].trips, 3u); // outer before inner
    EXPECT_EQ(p.blocks()[1].begin, 2u);
    EXPECT_EQ(p.blocks()[0].bodySize, 3u); // mte2 + 2 x cube
    EXPECT_EQ(p.blocks()[1].bodySize, 1u);
    EXPECT_EQ(p.size(), 1u + 3 * (1 + 2) + 1);

    const Program flat = p.flatten();
    EXPECT_FALSE(flat.hasBlocks());
    EXPECT_EQ(flat.name(), "nest");
    std::vector<Pipe> pipes;
    for (const Instr &i : flat.instrs())
        pipes.push_back(i.pipe);
    const std::vector<Pipe> expect = {
        Pipe::Scalar, Pipe::Mte2, Pipe::Cube, Pipe::Cube,
        Pipe::Mte2,   Pipe::Cube, Pipe::Cube, Pipe::Mte2,
        Pipe::Cube,   Pipe::Cube, Pipe::Vector};
    EXPECT_EQ(pipes, expect);
}

TEST(ProgramBlocks, OneTripAndEmptyBlocksAreDropped)
{
    Program p;
    p.beginBlock(1);
    p.exec(Pipe::Cube, 1);
    p.endBlock();
    p.beginBlock(5);
    p.endBlock();
    EXPECT_FALSE(p.hasBlocks());
    EXPECT_EQ(p.size(), 1u);
    EXPECT_EQ(p.instrs().size(), 1u);
}

TEST(ProgramBlocks, FlagBalanceCountsEveryTrip)
{
    Program p;
    p.setFlag(Pipe::Scalar, 4);
    p.beginBlock(10);
    p.setFlag(Pipe::Mte1, 4);
    p.setFlag(Pipe::Mte1, 4);
    p.waitFlag(Pipe::Cube, 4);
    p.endBlock();
    EXPECT_EQ(p.flagBalance()[4], 11);
    EXPECT_EQ(p.flagBalance(), p.flatten().flagBalance());
}

TEST(ProgramBlocks, AppendKeepsBlocksAndResetDropsThem)
{
    Program a("a"), b("b");
    a.exec(Pipe::Cube, 1);
    b.beginBlock(4);
    b.exec(Pipe::Vector, 2);
    b.endBlock();
    a.append(b);
    EXPECT_EQ(a.size(), 5u);
    ASSERT_EQ(a.blocks().size(), 1u);
    EXPECT_EQ(a.blocks()[0].begin, 1u);
    EXPECT_EQ(a.flatten().size(), 5u);
    a.reset("r");
    EXPECT_TRUE(a.empty());
    EXPECT_FALSE(a.hasBlocks());
}

TEST(ProgramBlocksDeath, InstrsOfABlockProgramPanics)
{
    Program p("blocked");
    p.beginBlock(2);
    p.exec(Pipe::Cube, 1);
    p.endBlock();
    EXPECT_DEATH(p.instrs(), "repeat blocks");
    Program q;
    EXPECT_DEATH(q.endBlock(), "without an open block");
    EXPECT_DEATH(q.beginBlock(0), "at least one trip");
}

} // anonymous namespace
} // namespace isa
} // namespace ascend
