/**
 * @file
 * Program container and builder for the simulated Ascend ISA.
 */

#ifndef ASCEND_ISA_PROGRAM_HH
#define ASCEND_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace ascend {
namespace isa {

/**
 * A repeat block: code()[begin, end) runs `trips` times in a row.
 * Blocks nest properly; a block's body may hold further blocks.
 */
struct Block
{
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint64_t trips = 0;
    std::uint64_t bodySize = 0; ///< flattened length of one trip
};

/**
 * An ordered instruction sequence as emitted by the compiler for one
 * task (typically one layer, or one tile block of a layer).
 *
 * The sequence may be loop-structured: beginBlock() / endBlock()
 * bracket a body that repeats a fixed number of times, the way the
 * scalar unit runs the tile loops that feed the PSQ. The body is
 * stored once (code(), blocks()); the program's meaning is its
 * flattened sequence (flatten(), size()), which the verifier, the
 * disassembler, the encoders and the core simulator's results all
 * follow.
 *
 * The builder methods enforce basic well-formedness (flag ids in
 * range, bus-use count bounds) at construction time so the simulator
 * can assume valid input.
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    /** Append an executing instruction on @p pipe. */
    void
    exec(Pipe pipe, Cycles cycles, Flops flops = 0,
         std::initializer_list<BusUse> buses = {}, const char *tag = nullptr)
    {
        if (buses.size() > kMaxBusUses)
            tooManyBusUses(buses.size());
        Instr &i = push();
        i.pipe = pipe;
        i.cycles = cycles;
        i.flops = flops;
        i.tag = tag;
        for (const BusUse &b : buses)
            i.busUses[i.numBusUses++] = b;
    }

    /** Append a SET_FLAG on @p pipe for flag @p id. */
    void
    setFlag(Pipe pipe, std::uint8_t id, const char *tag = nullptr)
    {
        flagOp(Opcode::SetFlag, pipe, id, tag);
    }

    /** Append a WAIT_FLAG on @p pipe for flag @p id. */
    void
    waitFlag(Pipe pipe, std::uint8_t id, const char *tag = nullptr)
    {
        flagOp(Opcode::WaitFlag, pipe, id, tag);
    }

    /** Append a full pipe barrier (dispatch drains all pipes). */
    void barrier(const char *tag = nullptr);

    /**
     * Open a repeat block: the instructions appended until the
     * matching endBlock() run @p trips (>= 1) times. A block of one
     * trip, or with an empty body, is dropped at endBlock().
     */
    void beginBlock(std::uint64_t trips);

    /** Close the innermost open block. */
    void endBlock();

    /** Append all instructions (and blocks) of @p other. */
    void append(const Program &other);

    /** The stored instructions, each block body once. */
    const std::vector<Instr> &code() const { return code_; }
    /** The repeat blocks over code(), outer before inner. */
    const std::vector<Block> &blocks() const { return blocks_; }
    bool hasBlocks() const { return !blocks_.empty(); }

    /**
     * The instruction sequence of a block-free program (see
     * flatten() for one with blocks). Panics on a program with
     * blocks.
     */
    const std::vector<Instr> &instrs() const;

    /** The same program with every block unrolled. */
    Program flatten() const;

    /** Number of instructions in the flattened sequence. */
    std::size_t size() const { return flatSize_; }
    bool empty() const { return flatSize_ == 0; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Drop every instruction and rename, keeping the storage. */
    void reset(const std::string &name);

    /**
     * Count of SET_FLAG minus WAIT_FLAG occurrences per flag id in
     * the flattened sequence; a well-formed double-buffered program
     * ends balanced (all zero) unless it deliberately pre-seeds
     * tokens. Exposed for tests and compiler self-checks.
     */
    std::vector<int> flagBalance() const;

  private:
    Instr &
    push()
    {
        flatSize_ += mult_;
        return code_.emplace_back();
    }

    void
    flagOp(Opcode op, Pipe pipe, std::uint8_t id, const char *tag)
    {
        Instr &i = push();
        i.op = op;
        i.pipe = pipe;
        i.flagId = id;
        i.tag = tag;
    }

    [[noreturn]] void tooManyBusUses(std::size_t n) const;

    std::string name_;
    std::vector<Instr> code_;
    std::vector<Block> blocks_;
    std::vector<std::size_t> open_; ///< blocks_ indices of open blocks
    std::uint64_t mult_ = 1;        ///< product of open blocks' trips
    std::uint64_t flatSize_ = 0;
};

} // namespace isa
} // namespace ascend

#endif // ASCEND_ISA_PROGRAM_HH
