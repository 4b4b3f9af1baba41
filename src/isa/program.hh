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
 * An ordered instruction sequence as emitted by the compiler for one
 * task (typically one layer, or one tile block of a layer).
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
        Instr &i = instrs_.emplace_back();
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

    /** Append all instructions of @p other to this program. */
    void append(const Program &other);

    const std::vector<Instr> &instrs() const { return instrs_; }
    std::size_t size() const { return instrs_.size(); }
    bool empty() const { return instrs_.empty(); }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Reserve storage for @p n instructions. */
    void reserve(std::size_t n) { instrs_.reserve(n); }

    /** Drop every instruction and rename, keeping the storage. */
    void
    reset(const std::string &name)
    {
        name_ = name;
        instrs_.clear();
    }

    /**
     * Count of SET_FLAG minus WAIT_FLAG occurrences per flag id; a
     * well-formed double-buffered program ends balanced (all zero)
     * unless it deliberately pre-seeds tokens. Exposed for tests and
     * compiler self-checks.
     */
    std::vector<int> flagBalance() const;

  private:
    void
    flagOp(Opcode op, Pipe pipe, std::uint8_t id, const char *tag)
    {
        Instr &i = instrs_.emplace_back();
        i.op = op;
        i.pipe = pipe;
        i.flagId = id;
        i.tag = tag;
    }

    [[noreturn]] void tooManyBusUses(std::size_t n) const;

    std::string name_;
    std::vector<Instr> instrs_;
};

} // namespace isa
} // namespace ascend

#endif // ASCEND_ISA_PROGRAM_HH
