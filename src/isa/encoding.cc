/**
 * @file
 * Instruction-stream encoding models.
 */

#include "isa/encoding.hh"

#include <unordered_set>

namespace ascend {
namespace isa {

namespace {

Bytes
instrBytes(const Instr &i)
{
    return i.op == Opcode::Exec ? kExecEncodedBytes : kSyncEncodedBytes;
}

/** Shape key: everything except the operand magnitudes. */
std::uint64_t
shapeKey(const Instr &i)
{
    std::uint64_t key = static_cast<std::uint64_t>(i.op);
    key = key * 31 + static_cast<std::uint64_t>(i.pipe);
    key = key * 31 + i.flagId;
    key = key * 31 + i.numBusUses;
    for (unsigned b = 0; b < i.numBusUses; ++b)
        key = key * 31 + static_cast<std::uint64_t>(i.busUses[b].bus);
    // The tag pointer identifies the emitting code site, which is
    // exactly the loop-body identity the compressor exploits.
    key = key * 31 + reinterpret_cast<std::uintptr_t>(i.tag);
    return key;
}

} // anonymous namespace

Bytes
encodedBytes(const Program &program)
{
    Bytes total = 0;
    const Program flat = program.flatten();
    for (const Instr &i : flat.instrs())
        total += instrBytes(i);
    return total;
}

Bytes
compressedBytes(const Program &program)
{
    std::unordered_set<std::uint64_t> shapes;
    Bytes total = 0;
    const Program flat = program.flatten();
    for (const Instr &i : flat.instrs()) {
        if (shapes.insert(shapeKey(i)).second)
            total += kDictEntryBytes;
        // Reference + operand delta (sync instrs have no operands).
        total += kDictRefBytes;
        if (i.op == Opcode::Exec)
            total += 2; // varint-coded operand delta
    }
    return total;
}

double
compressionRatio(const Program &program)
{
    const Bytes dense = encodedBytes(program);
    return dense ? double(compressedBytes(program)) / double(dense) : 1.0;
}

} // namespace isa
} // namespace ascend
