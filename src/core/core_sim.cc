/**
 * @file
 * Core simulator kernel.
 */

#include "core/core_sim.hh"

#include <algorithm>
#include <deque>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace ascend {
namespace core {

namespace {

using isa::Instr;
using isa::Opcode;
using isa::Pipe;

/** A dispatched-but-not-retired instruction. */
struct QueueEntry
{
    const Instr *instr;
    Cycles dispatchCycle;
};

/** Min-heap of pending SET_FLAG completion times for one flag id. */
using TokenHeap =
    std::priority_queue<Cycles, std::vector<Cycles>, std::greater<>>;

} // anonymous namespace

void
SimResult::accumulate(const SimResult &other)
{
    totalCycles += other.totalCycles;
    totalFlops += other.totalFlops;
    instrsExecuted += other.instrsExecuted;
    barriers += other.barriers;
    for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
        pipes[p].busyCycles += other.pipes[p].busyCycles;
        pipes[p].waitCycles += other.pipes[p].waitCycles;
        pipes[p].instrs += other.pipes[p].instrs;
        pipes[p].finishCycle = totalCycles;
    }
    for (std::size_t b = 0; b < isa::kNumBuses; ++b)
        busBytes[b] += other.busBytes[b];
}

SimResult
CoreSim::run(const isa::Program &program, obs::PipeTrace *trace) const
{
    const std::vector<Instr> &instrs = program.instrs();
    const std::size_t n = instrs.size();

    std::array<std::deque<QueueEntry>, isa::kNumPipes> queues;
    std::array<Cycles, isa::kNumPipes> pipeAvail{};
    std::array<TokenHeap, isa::kNumFlags> tokens;

    SimResult result;
    // One gate check per run; record sites below stay branch-free
    // when tracing is off.
    obs::Tracer *const tracer = obs::Tracer::current();

    std::size_t next_dispatch = 0;
    Cycles dispatch_clock = 0;
    unsigned dispatched_this_cycle = 0;
    const unsigned dispatch_rate = std::max(1u, config_.dispatchPerCycle);

    auto queues_empty = [&queues]() {
        for (const auto &q : queues)
            if (!q.empty())
                return false;
        return true;
    };
    auto max_pipe_avail = [&pipeAvail]() {
        Cycles m = 0;
        for (Cycles t : pipeAvail)
            m = std::max(m, t);
        return m;
    };

    auto tick_dispatch = [&]() {
        if (++dispatched_this_cycle >= dispatch_rate) {
            dispatched_this_cycle = 0;
            ++dispatch_clock;
        }
    };

    /**
     * Retire as many instructions as possible from the pipe queues.
     * Returns true if at least one instruction retired.
     */
    auto execute_pass = [&]() {
        bool any = false;
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
                auto &q = queues[p];
                while (!q.empty()) {
                    const QueueEntry entry = q.front();
                    const Instr &i = *entry.instr;
                    if (i.op == Opcode::Exec) {
                        Cycles start = std::max(pipeAvail[p],
                                                entry.dispatchCycle);
                        pipeAvail[p] = start + i.cycles;
                        if (trace)
                            trace->add(static_cast<Pipe>(p), start,
                                       i.cycles, i.tag);
                        auto &ps = result.pipes[p];
                        ps.busyCycles += i.cycles;
                        ps.finishCycle = pipeAvail[p];
                        ++ps.instrs;
                        result.totalFlops += i.flops;
                        Bytes moved = 0;
                        for (unsigned b = 0; b < i.numBusUses; ++b) {
                            const isa::BusUse &use = i.busUses[b];
                            result.busBytes[
                                static_cast<std::size_t>(use.bus)] +=
                                use.bytes;
                            moved += use.bytes;
                        }
                        if (tracer)
                            tracer->span(obs::Domain::Core,
                                         std::uint32_t(p) + 1, i.tag,
                                         start, i.cycles, moved);
                        ++result.instrsExecuted;
                    } else if (i.op == Opcode::SetFlag) {
                        Cycles t = std::max(pipeAvail[p],
                                            entry.dispatchCycle);
                        tokens[i.flagId].push(t);
                        ++result.instrsExecuted;
                    } else if (i.op == Opcode::WaitFlag) {
                        TokenHeap &heap = tokens[i.flagId];
                        if (heap.empty())
                            break; // pipe blocked; try others
                        Cycles t = heap.top();
                        heap.pop();
                        // Stall accounting: cycles the pipe sat ready
                        // but waiting for the producer's token.
                        const Cycles ready = std::max(
                            pipeAvail[p], entry.dispatchCycle);
                        if (t > ready)
                            result.pipes[p].waitCycles += t - ready;
                        pipeAvail[p] = std::max(ready, t);
                        ++result.instrsExecuted;
                    } else {
                        panic("CoreSim: Barrier reached a pipe queue");
                    }
                    q.pop_front();
                    progress = true;
                    any = true;
                }
            }
        }
        return any;
    };

    while (true) {
        bool progress = false;

        // Dispatch phase: feed pipe queues until a barrier forces a
        // drain (or the program ends).
        while (next_dispatch < n) {
            const Instr &i = instrs[next_dispatch];
            if (i.op == Opcode::Barrier) {
                if (!queues_empty())
                    break; // drain before consuming the barrier
                dispatch_clock = std::max(dispatch_clock,
                                          max_pipe_avail());
                dispatched_this_cycle = 0;
                ++next_dispatch;
                ++result.instrsExecuted;
                ++result.barriers;
                progress = true;
                continue;
            }
            queues[static_cast<std::size_t>(i.pipe)].push_back(
                QueueEntry{&i, dispatch_clock});
            tick_dispatch();
            ++next_dispatch;
            progress = true;
        }

        if (execute_pass())
            progress = true;

        if (next_dispatch >= n && queues_empty())
            break;

        if (!progress) {
            // Deadlock: report per-pipe head state for debugging.
            for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
                const auto &q = queues[p];
                if (q.empty())
                    continue;
                const Instr &i = *q.front().instr;
                warn("deadlock: pipe %s blocked on %s flag %u (tag %s), "
                     "%zu queued",
                     isa::toString(static_cast<Pipe>(p)),
                     i.op == Opcode::WaitFlag ? "WAIT" : "instr",
                     unsigned(i.flagId), i.tag ? i.tag : "-", q.size());
            }
            panic("CoreSim: program '%s' deadlocked at instr %zu/%zu",
                  program.name().c_str(), next_dispatch, n);
        }
    }

    result.totalCycles = std::max(dispatch_clock, max_pipe_avail());
    return result;
}

} // namespace core
} // namespace ascend
