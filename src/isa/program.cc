/**
 * @file
 * Program builder implementation.
 */

#include "isa/program.hh"

#include "common/logging.hh"

namespace ascend {
namespace isa {

namespace {

/**
 * Append the flattened form of code[lo, hi) to @p out. @p nb is the
 * index of the first block starting at or after @p lo; on return it
 * is past every block inside the range.
 */
void
expand(const std::vector<Instr> &code, const std::vector<Block> &blocks,
       std::size_t lo, std::size_t hi, std::size_t &nb,
       std::vector<Instr> &out)
{
    std::size_t i = lo;
    while (i < hi) {
        if (nb < blocks.size() && blocks[nb].begin == i) {
            const Block b = blocks[nb++];
            const std::size_t firstChild = nb;
            for (std::uint64_t t = 0; t < b.trips; ++t) {
                nb = firstChild;
                expand(code, blocks, b.begin, b.end, nb, out);
            }
            i = b.end;
        } else {
            out.push_back(code[i++]);
        }
    }
}

} // anonymous namespace

void
Program::tooManyBusUses(std::size_t n) const
{
    panic("Program %s: %zu bus uses on one instruction (max %zu)",
          name_.c_str(), n, kMaxBusUses);
}

void
Program::barrier(const char *tag)
{
    Instr &i = push();
    i.op = Opcode::Barrier;
    i.pipe = Pipe::Scalar;
    i.tag = tag;
}

void
Program::beginBlock(std::uint64_t trips)
{
    if (trips == 0)
        panic("Program %s: a repeat block needs at least one trip",
              name_.c_str());
    open_.push_back(blocks_.size());
    // bodySize holds the flattened size at entry until endBlock.
    blocks_.push_back({std::uint32_t(code_.size()), 0, trips, flatSize_});
    mult_ *= trips;
}

void
Program::endBlock()
{
    if (open_.empty())
        panic("Program %s: endBlock without an open block", name_.c_str());
    const std::size_t idx = open_.back();
    open_.pop_back();
    Block &b = blocks_[idx];
    b.end = std::uint32_t(code_.size());
    b.bodySize = (flatSize_ - b.bodySize) / mult_;
    mult_ /= b.trips;
    // A one-trip block is its body; an empty one has nothing to repeat
    // (and no nested blocks either).
    if (b.trips == 1 || b.begin == b.end)
        blocks_.erase(blocks_.begin() + std::ptrdiff_t(idx));
}

void
Program::append(const Program &other)
{
    if (!other.open_.empty())
        panic("Program %s: appending %s with an open block", name_.c_str(),
              other.name_.c_str());
    const std::uint32_t offset = std::uint32_t(code_.size());
    code_.insert(code_.end(), other.code_.begin(), other.code_.end());
    for (Block b : other.blocks_) {
        b.begin += offset;
        b.end += offset;
        blocks_.push_back(b);
    }
    flatSize_ += other.flatSize_ * mult_;
}

const std::vector<Instr> &
Program::instrs() const
{
    if (!blocks_.empty())
        panic("Program %s: instrs() of a program with repeat blocks "
              "(use flatten())", name_.c_str());
    return code_;
}

Program
Program::flatten() const
{
    Program out(name_);
    out.code_.reserve(flatSize_);
    std::size_t nb = 0;
    expand(code_, blocks_, 0, code_.size(), nb, out.code_);
    out.flatSize_ = out.code_.size();
    return out;
}

void
Program::reset(const std::string &name)
{
    name_ = name;
    code_.clear();
    blocks_.clear();
    open_.clear();
    mult_ = 1;
    flatSize_ = 0;
}

std::vector<int>
Program::flagBalance() const
{
    std::vector<std::uint64_t> mult(code_.size(), 1);
    for (const Block &b : blocks_)
        for (std::size_t i = b.begin; i < b.end; ++i)
            mult[i] *= b.trips;
    std::vector<int> balance(kNumFlags, 0);
    for (std::size_t i = 0; i < code_.size(); ++i) {
        const Instr &in = code_[i];
        if (in.op == Opcode::SetFlag)
            balance[in.flagId] += int(mult[i]);
        else if (in.op == Opcode::WaitFlag)
            balance[in.flagId] -= int(mult[i]);
    }
    return balance;
}

} // namespace isa
} // namespace ascend
