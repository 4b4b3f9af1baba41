/**
 * @file
 * Program builder implementation.
 */

#include "isa/program.hh"

#include "common/logging.hh"

namespace ascend {
namespace isa {

void
Program::tooManyBusUses(std::size_t n) const
{
    panic("Program %s: %zu bus uses on one instruction (max %zu)",
          name_.c_str(), n, kMaxBusUses);
}

void
Program::barrier(const char *tag)
{
    Instr i;
    i.op = Opcode::Barrier;
    i.pipe = Pipe::Scalar;
    i.tag = tag;
    instrs_.push_back(i);
}

void
Program::append(const Program &other)
{
    instrs_.insert(instrs_.end(), other.instrs_.begin(),
                   other.instrs_.end());
}

std::vector<int>
Program::flagBalance() const
{
    std::vector<int> balance(kNumFlags, 0);
    for (const Instr &i : instrs_) {
        if (i.op == Opcode::SetFlag)
            ++balance[i.flagId];
        else if (i.op == Opcode::WaitFlag)
            --balance[i.flagId];
    }
    return balance;
}

} // namespace isa
} // namespace ascend
