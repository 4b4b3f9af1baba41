/**
 * @file
 * Tests for three Section 3.2 / tooling features: the DVFS table and
 * governor, instruction-stream compression, and the Chrome-trace
 * capture of the core simulator.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"
#include "isa/encoding.hh"
#include "obs/tracer.hh"
#include "soc/dvfs.hh"

#include "scoped_trace.hh"

namespace ascend {
namespace {

// ---------------------------------------------------------------- DVFS

TEST(Dvfs, NominalPointIsIdentity)
{
    const auto table = soc::DvfsTable::mobileNpu();
    EXPECT_DOUBLE_EQ(table.latencyAt(table.nominal(), 1.0), 1.0);
    EXPECT_DOUBLE_EQ(table.relativeEnergyAt(table.nominal()), 1.0);
}

TEST(Dvfs, LowerFrequencyTradesLatencyForEnergy)
{
    const auto table = soc::DvfsTable::mobileNpu();
    const auto &low = table.points().front();
    EXPECT_GT(table.latencyAt(low, 1.0), 1.0);
    EXPECT_LT(table.relativeEnergyAt(low), 1.0);
}

TEST(Dvfs, BoostIsFasterButCostlier)
{
    const auto table = soc::DvfsTable::mobileNpu();
    const auto &boost = table.points().back();
    EXPECT_LT(table.latencyAt(boost, 1.0), 1.0);
    EXPECT_GT(table.relativeEnergyAt(boost), 1.0);
}

TEST(Dvfs, GovernorPicksLowestEnergyMeetingDeadline)
{
    const auto table = soc::DvfsTable::mobileNpu();
    // Very loose deadline: the lowest point wins.
    EXPECT_EQ(&table.pick(0.001, 1.0), &table.points().front());
    // Impossible deadline: fall back to the fastest point.
    EXPECT_EQ(&table.pick(1.0, 1e-6), &table.points().back());
    // A deadline exactly matching nominal: nominal (or lower) is
    // chosen, never boost.
    const auto &chosen = table.pick(0.010, 0.010);
    EXPECT_LE(chosen.freqGhz, table.nominal().freqGhz);
}

TEST(Dvfs, RelativePowerFollowsV2F)
{
    const soc::OperatingPoint nominal{"n", 1.0, 1.0};
    const soc::OperatingPoint half{"h", 0.5, 0.8};
    EXPECT_NEAR(half.relativePower(nominal), 0.8 * 0.8 * 0.5, 1e-12);
}

TEST(DvfsDeath, UnsortedTableRejected)
{
    EXPECT_DEATH(soc::DvfsTable({{"a", 1.0, 1.0}, {"b", 0.5, 0.8}}, 0),
                 "sorted");
}

// --------------------------------------------------- encoding

TEST(Encoding, SizesByOpcode)
{
    isa::Program p;
    p.exec(isa::Pipe::Cube, 10);
    p.setFlag(isa::Pipe::Cube, 1);
    p.waitFlag(isa::Pipe::Vector, 1);
    EXPECT_EQ(isa::encodedBytes(p),
              isa::kExecEncodedBytes + 2 * isa::kSyncEncodedBytes);
}

TEST(Encoding, LoopyProgramsCompressWell)
{
    // A compiled GEMM is a repeated loop body: the shape dictionary
    // should compress it several-fold (the Section 3.2 technique).
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    compiler::LayerCompiler lc(cfg);
    const auto prog =
        lc.compile(model::Layer::linear("fc", 1024, 1024, 1024));
    const double ratio = isa::compressionRatio(prog);
    EXPECT_LT(ratio, 0.6);
    EXPECT_GT(ratio, 0.0);
}

TEST(Encoding, UniqueInstructionsDoNotCompress)
{
    isa::Program p;
    // Every instruction has a distinct shape (different flag ids).
    for (std::uint8_t i = 0; i < 100; ++i)
        p.setFlag(isa::Pipe::Cube, i % 250);
    // With 100 distinct-ish shapes the dictionary dominates.
    EXPECT_GT(isa::compressionRatio(p), 0.7);
}

TEST(Encoding, EmptyProgramRatioIsOne)
{
    EXPECT_DOUBLE_EQ(isa::compressionRatio(isa::Program()), 1.0);
}

// ------------------------------------------------------- trace

/** Busy cycles of @p pipe in the Core spans of @p spans. */
Cycles
busyCycles(const std::vector<obs::Span> &spans, isa::Pipe pipe)
{
    Cycles total = 0;
    for (const obs::Span &s : spans)
        if (s.pid == std::uint32_t(obs::Domain::Core) &&
            s.tid == std::uint32_t(pipe) + 1)
            total += s.duration;
    return total;
}

TEST(Trace, CapturesEveryExecInstr)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    core::CoreSim sim(cfg);
    isa::Program p;
    p.exec(isa::Pipe::Mte1, 100, 0, {}, "load");
    p.setFlag(isa::Pipe::Mte1, 0);
    p.waitFlag(isa::Pipe::Cube, 0);
    p.exec(isa::Pipe::Cube, 200, 0, {}, "mm");

    ScopedTrace scope;
    const auto r = sim.run(p);
    // Sorted by track: the cube pipe's before MTE1's.
    const std::vector<obs::Span> spans = obs::Tracer::instance().spans();
    ASSERT_EQ(spans.size(), 2u);
    const obs::Span &mm = spans[0], &load = spans[1];
    EXPECT_EQ(load.tid, std::uint32_t(isa::Pipe::Mte1) + 1);
    EXPECT_EQ(load.duration, 100u);
    EXPECT_STREQ(mm.name, "mm");
    // Dependency visible in the timeline.
    EXPECT_GE(mm.start, load.start + load.duration);
    EXPECT_EQ(busyCycles(spans, isa::Pipe::Cube),
              r.pipe(isa::Pipe::Cube).busyCycles);
}

TEST(Trace, BusyCyclesMatchSimResultOnRealProgram)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    compiler::LayerCompiler lc(cfg);
    core::CoreSim sim(cfg);
    const auto prog =
        lc.compile(model::Layer::linear("fc", 256, 256, 256));
    ScopedTrace scope;
    const auto r = sim.run(prog);
    const std::vector<obs::Span> spans = obs::Tracer::instance().spans();
    for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
        const auto pipe = static_cast<isa::Pipe>(p);
        EXPECT_EQ(busyCycles(spans, pipe), r.pipe(pipe).busyCycles)
            << isa::toString(pipe);
    }
}

} // anonymous namespace
} // namespace ascend
