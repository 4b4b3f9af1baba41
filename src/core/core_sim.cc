/**
 * @file
 * Core simulator kernel.
 */

#include "core/core_sim.hh"

#include <algorithm>
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

/**
 * Pending SET_FLAG completion times of one flag id, popped smallest
 * first like a min-heap. Each producer pipe's clock only moves
 * forward, so a push is almost always an append; the rare token that
 * completes before one already queued (two producer pipes) is
 * inserted in order. Tokens are plain values, so the front is the
 * same minimum a heap would return.
 */
class TokenQueue
{
  public:
    bool empty() const { return head_ == times_.size(); }

    void
    push(Cycles t)
    {
        if (empty() || t >= times_.back()) {
            times_.push_back(t);
            return;
        }
        const auto at =
            std::upper_bound(times_.begin() + head_, times_.end(), t);
        times_.insert(at, t);
    }

    Cycles
    pop()
    {
        const Cycles t = times_[head_++];
        if (empty())
            clear();
        return t;
    }

    void
    clear()
    {
        times_.clear();
        head_ = 0;
    }

  private:
    std::vector<Cycles> times_;
    std::size_t head_ = 0;
};

/**
 * Per-thread scratch of CoreSim::run, kept between runs so a thread
 * simulating program after program stops reallocating. The pipe
 * queues share one flat array: a counting pass gives each pipe a
 * slice that holds exactly its instructions; dispatch appends at the
 * pipe's tail, retirement advances its head.
 */
struct RunScratch
{
    std::vector<QueueEntry> entries;
    std::array<TokenQueue, isa::kNumFlags> tokens;
};

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

    thread_local RunScratch scratch;
    std::array<TokenQueue, isa::kNumFlags> &tokens = scratch.tokens;
    std::array<std::size_t, isa::kNumPipes> head{};
    std::array<std::size_t, isa::kNumPipes> tail{};
    {
        std::array<std::size_t, isa::kNumPipes> count{};
        for (const Instr &i : instrs)
            if (i.op != Opcode::Barrier)
                ++count[static_cast<std::size_t>(i.pipe)];
        std::size_t begin = 0;
        for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
            head[p] = tail[p] = begin;
            begin += count[p];
        }
        scratch.entries.resize(begin);
        for (TokenQueue &t : tokens)
            t.clear();
    }
    QueueEntry *const entries = scratch.entries.data();
    std::array<Cycles, isa::kNumPipes> pipeAvail{};

    SimResult result;
    // One gate check per run; record sites below stay branch-free
    // when tracing is off.
    obs::Tracer *const tracer = obs::Tracer::current();

    std::size_t next_dispatch = 0;
    Cycles dispatch_clock = 0;
    unsigned dispatched_this_cycle = 0;
    const unsigned dispatch_rate = std::max(1u, config_.dispatchPerCycle);

    auto queues_empty = [&]() {
        for (std::size_t p = 0; p < isa::kNumPipes; ++p)
            if (head[p] != tail[p])
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
                while (head[p] != tail[p]) {
                    const QueueEntry entry = entries[head[p]];
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
                        TokenQueue &queue = tokens[i.flagId];
                        if (queue.empty())
                            break; // pipe blocked; try others
                        const Cycles t = queue.pop();
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
                    ++head[p];
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
            const std::size_t p = static_cast<std::size_t>(i.pipe);
            entries[tail[p]++] = QueueEntry{&i, dispatch_clock};
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
                if (head[p] == tail[p])
                    continue;
                const Instr &i = *entries[head[p]].instr;
                warn("deadlock: pipe %s blocked on %s flag %u (tag %s), "
                     "%zu queued",
                     isa::toString(static_cast<Pipe>(p)),
                     i.op == Opcode::WaitFlag ? "WAIT" : "instr",
                     unsigned(i.flagId), i.tag ? i.tag : "-",
                     tail[p] - head[p]);
            }
            panic("CoreSim: program '%s' deadlocked at instr %zu/%zu",
                  program.name().c_str(), next_dispatch, n);
        }
    }

    result.totalCycles = std::max(dispatch_clock, max_pipe_avail());
    // Pipe accounting holds by construction: a pipe's executions and
    // WAIT stalls are disjoint spans of its own timeline, which ends
    // at or before the program does.
    for (const PipeStats &ps : result.pipes) {
        simAssert(ps.busyCycles <= ps.finishCycle &&
                      ps.finishCycle <= result.totalCycles,
                  "CoreSim: pipe busy <= finish <= total cycles");
        simAssert(ps.busyCycles + ps.waitCycles <= result.totalCycles,
                  "CoreSim: pipe busy + wait <= total cycles");
    }
    return result;
}

} // namespace core
} // namespace ascend
