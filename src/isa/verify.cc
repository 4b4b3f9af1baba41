/**
 * @file
 * Static verifier and disassembler implementation.
 */

#include "isa/verify.hh"

#include <array>
#include <cstdio>
#include <sstream>

namespace ascend {
namespace isa {

std::vector<VerifyIssue>
verifyProgram(const Program &program)
{
    std::vector<VerifyIssue> issues;
    const Program flat = program.flatten();
    const auto &instrs = flat.instrs();

    // Global set/wait totals per flag.
    std::array<long, kNumFlags> sets{};
    std::array<long, kNumFlags> waits{};
    for (const Instr &i : instrs) {
        if (i.op == Opcode::SetFlag)
            ++sets[i.flagId];
        else if (i.op == Opcode::WaitFlag)
            ++waits[i.flagId];
    }

    for (std::size_t f = 0; f < kNumFlags; ++f) {
        if (waits[f] > 0 && sets[f] == 0) {
            issues.push_back(
                {0, "flag " + std::to_string(f) +
                        " is waited on but never set"});
        } else if (waits[f] > sets[f]) {
            issues.push_back(
                {0, "flag " + std::to_string(f) + " has " +
                        std::to_string(waits[f]) + " waits but only " +
                        std::to_string(sets[f]) + " sets"});
        }
    }

    // Barrier segmentation: within each barrier-delimited segment,
    // waits can only be satisfied by sets in the same or an earlier
    // segment (dispatch never crosses a barrier while pipes block).
    std::array<long, kNumFlags> available{};
    std::array<long, kNumFlags> seg_sets{};
    std::array<long, kNumFlags> seg_waits{};
    auto close_segment = [&](std::size_t index) {
        for (std::size_t f = 0; f < kNumFlags; ++f) {
            available[f] += seg_sets[f] - seg_waits[f];
            if (available[f] < 0) {
                issues.push_back(
                    {index, "flag " + std::to_string(f) +
                                " underflows at the barrier: its sets "
                                "come after the barrier"});
                available[f] = 0;
            }
            seg_sets[f] = seg_waits[f] = 0;
        }
    };
    for (std::size_t idx = 0; idx < instrs.size(); ++idx) {
        const Instr &i = instrs[idx];
        switch (i.op) {
          case Opcode::SetFlag:
            ++seg_sets[i.flagId];
            break;
          case Opcode::WaitFlag:
            ++seg_waits[i.flagId];
            break;
          case Opcode::Barrier:
            close_segment(idx);
            break;
          case Opcode::Exec:
            if (i.cycles == 0 && i.numBusUses > 0)
                issues.push_back(
                    {idx, "zero-latency instruction moves bytes"});
            break;
        }
    }
    return issues;
}

bool
isWellFormed(const Program &program)
{
    return verifyProgram(program).empty();
}

std::string
disassemble(const Program &program, std::size_t max_lines)
{
    std::ostringstream os;
    os << "; program '" << program.name() << "', " << program.size()
       << " instructions\n";
    std::size_t line = 0;
    const Program flat = program.flatten();
    for (const Instr &i : flat.instrs()) {
        if (line++ >= max_lines) {
            os << "; ... " << (program.size() - max_lines)
               << " more\n";
            break;
        }
        char buf[160];
        switch (i.op) {
          case Opcode::Exec: {
            std::string buses;
            for (unsigned b = 0; b < i.numBusUses; ++b) {
                buses += b ? ", " : " [";
                buses += toString(i.busUses[b].bus);
                buses += "=" + std::to_string(i.busUses[b].bytes);
            }
            if (i.numBusUses)
                buses += "]";
            std::snprintf(buf, sizeof(buf), "%-7s exec %llu cy%s%s%s",
                          toString(i.pipe),
                          static_cast<unsigned long long>(i.cycles),
                          buses.c_str(), i.tag ? "  ; " : "",
                          i.tag ? i.tag : "");
            break;
          }
          case Opcode::SetFlag:
            std::snprintf(buf, sizeof(buf), "%-7s set_flag %u",
                          toString(i.pipe), unsigned(i.flagId));
            break;
          case Opcode::WaitFlag:
            std::snprintf(buf, sizeof(buf), "%-7s wait_flag %u",
                          toString(i.pipe), unsigned(i.flagId));
            break;
          case Opcode::Barrier:
            std::snprintf(buf, sizeof(buf), "%-7s pipe_barrier", "psq");
            break;
        }
        os << buf << "\n";
    }
    return os.str();
}

} // namespace isa
} // namespace ascend
