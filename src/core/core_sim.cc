/**
 * @file
 * Core simulator kernel.
 */

#include "core/core_sim.hh"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace ascend {
namespace core {

namespace {

using isa::Block;
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
    std::size_t size() const { return times_.size() - head_; }
    Cycles *begin() { return times_.data() + head_; }
    Cycles *end() { return times_.data() + times_.size(); }

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
 * The max() outcomes of one retired instruction, logged while a block
 * runs so the fast-forward can compare trips. Bit 0 of `winners` is
 * set when the dispatch cycle beat the pipe clock, bit 1 when the
 * ready time beat a WAIT's token; each margin is winner minus loser.
 * A null `instr` marks where an inner block was extrapolated
 * (margin[0] = the trips it had done, margin[1] = the units it
 * skipped); such markers must match exactly.
 */
struct Decision
{
    const Instr *instr;
    std::uint8_t winners;
    std::array<Cycles, 2> margin;
};

/** Pipe clock vs dispatch cycle, logged as decision bit 0. */
inline Cycles
readyTime(Cycles avail, Cycles dispatchCycle, Decision &d)
{
    if (avail >= dispatchCycle) {
        d.margin[0] = avail - dispatchCycle;
        return avail;
    }
    d.winners |= 1;
    d.margin[0] = dispatchCycle - avail;
    return dispatchCycle;
}

/** Engine state at a trip boundary, where every pipe queue is empty. */
struct Snapshot
{
    /** Pipe clocks, pipe finish cycles, the dispatch clock, then the
     *  queued token times of each flag the program uses. */
    std::vector<Cycles> clocks;
    /** Queued tokens per flag the program uses. */
    std::vector<std::size_t> depth;
    SimResult result;
    std::size_t logEnd = 0; ///< size of the decision log at the boundary
};

/** One open repeat block of a fast-forward run. */
struct Frame
{
    std::size_t block = 0;
    std::uint64_t trips = 0; ///< trips done
    /** Trips per extrapolation unit: the dispatch phase repeats every
     *  rate / gcd(body length, rate) trips, and a paired unit holds
     *  two such periods. */
    std::uint64_t unit = 1;
    std::uint64_t next = 0;  ///< trips done at the next unit boundary
    std::uint64_t units = 0; ///< boundaries snapshotted since restart()
    unsigned refusals = 0;   ///< boundaries in a row that did not settle
    bool paired = false;     ///< unit doubled for two-trip periods
    bool live = false;       ///< may still extrapolate
    bool logging = false;    ///< this frame or an ancestor is live
    std::array<Snapshot, 3> snaps; ///< ring, indexed by units % 3
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
    // Fast-forward state.
    std::vector<std::uint8_t> flags; ///< flag ids the program uses
    std::vector<Frame> frames;
    std::vector<Decision> log;
};

/**
 * Whether a trip-at-a-time run of @p program is exactly its flattened
 * run: no barrier inside a block, and every flag has one consumer
 * pipe and one producer pipe, apart from scalar SETs that open the
 * program. Then every flag's tokens are pushed in time order and
 * popped first-in first-out by the one consumer, so each WAIT gets the
 * same token whatever order the pipes are stepped in. Fills the
 * scratch's flag list.
 */
bool
fastForwardable(const isa::Program &program, RunScratch &scratch)
{
    const std::vector<Instr> &code = program.code();
    const std::vector<Block> &blocks = program.blocks();
    std::vector<int> inBlock(code.size() + 1, 0);
    for (const Block &b : blocks) {
        ++inBlock[b.begin];
        --inBlock[b.end];
    }
    constexpr std::uint8_t kNone = 0xff;
    std::array<std::uint8_t, isa::kNumFlags> consumer, producer;
    consumer.fill(kNone);
    producer.fill(kNone);
    std::array<bool, isa::kNumFlags> used{};
    scratch.flags.clear();
    bool leading = true;
    int depth = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
        depth += inBlock[i];
        const Instr &in = code[i];
        leading = leading && depth == 0 && in.op == Opcode::SetFlag &&
                  in.pipe == Pipe::Scalar;
        if (in.op == Opcode::Barrier) {
            if (depth > 0)
                return false;
            continue;
        }
        if (in.op == Opcode::Exec)
            continue;
        if (!used[in.flagId]) {
            used[in.flagId] = true;
            scratch.flags.push_back(in.flagId);
        }
        if (in.op == Opcode::SetFlag && leading)
            continue;
        std::uint8_t &owner =
            in.op == Opcode::SetFlag ? producer[in.flagId]
                                     : consumer[in.flagId];
        if (owner == kNone)
            owner = std::uint8_t(in.pipe);
        else if (owner != std::uint8_t(in.pipe))
            return false;
    }
    return true;
}

/**
 * The one simulation engine. A block-free program is dispatched
 * straight through, draining the pipes whenever a barrier stops
 * dispatch. A program with blocks (fast-forward mode) is dispatched
 * one trip at a time, with the pipes drained at every block entry and
 * trip end; see settle() for when trips are extrapolated.
 */
class Engine
{
  public:
    Engine(const isa::Program &program, unsigned rate, RunScratch &scratch,
           obs::Tracer *tracer)
        : program_(program), code_(program.code()),
          blocks_(program.blocks()), rate_(rate), scratch_(scratch),
          tokens_(scratch.tokens), tracer_(tracer)
    {
        std::array<std::size_t, isa::kNumPipes> count{};
        for (const Instr &i : code_)
            if (i.op != Opcode::Barrier)
                ++count[static_cast<std::size_t>(i.pipe)];
        std::size_t begin = 0;
        for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
            base_[p] = head_[p] = tail_[p] = begin;
            begin += count[p];
        }
        scratch.entries.resize(begin);
        entries_ = scratch.entries.data();
        for (TokenQueue &t : tokens_)
            t.clear();
        scratch.log.clear();
    }

    /**
     * Simulate the program. Returns false when a fast-forward run
     * cannot go on (a drain left a pipe blocked): the caller then
     * simulates the flattened program instead.
     */
    bool run(RunStats &stats);

    SimResult result;

  private:
    bool
    queuesEmpty() const
    {
        for (std::size_t p = 0; p < isa::kNumPipes; ++p)
            if (head_[p] != tail_[p])
                return false;
        return true;
    }

    Cycles
    maxPipeAvail() const
    {
        Cycles m = 0;
        for (Cycles t : pipeAvail_)
            m = std::max(m, t);
        return m;
    }

    void
    dispatch(const Instr &i)
    {
        const std::size_t p = static_cast<std::size_t>(i.pipe);
        entries_[tail_[p]++] = QueueEntry{&i, dispatchClock_};
        if (++dispatchedThisCycle_ >= rate_) {
            dispatchedThisCycle_ = 0;
            ++dispatchClock_;
        }
        ++stepped_;
    }

    /** Decisions are logged only while a live block needs them. */
    bool
    executePass()
    {
        return logging_ ? executePass<true>() : executePass<false>();
    }
    template <bool Log> bool executePass();

    /** Whether the open block at @p depth (1 = outermost) logs. */
    bool
    loggingAt(std::size_t depth) const
    {
        return depth > 0 && scratch_.frames[depth - 1].logging;
    }

    bool drain();
    void enterBlock(std::size_t b);
    void endTrip(std::size_t &pc, std::size_t &nb);
    void snapshot(Snapshot &s);
    void restart(Frame &f);
    void settle(Frame &f);
    std::uint64_t settledUnits(const Frame &f) const;
    void extrapolate(Frame &f, std::uint64_t units);
    void trimLog(Frame &f);
    [[noreturn]] void deadlock(std::size_t pc) const;

    const isa::Program &program_;
    const std::vector<Instr> &code_;
    const std::vector<Block> &blocks_;
    const unsigned rate_;
    RunScratch &scratch_;
    std::array<TokenQueue, isa::kNumFlags> &tokens_;
    obs::Tracer *const tracer_;

    QueueEntry *entries_ = nullptr;
    std::array<std::size_t, isa::kNumPipes> base_{}, head_{}, tail_{};
    std::array<Cycles, isa::kNumPipes> pipeAvail_{};
    Cycles dispatchClock_ = 0;
    unsigned dispatchedThisCycle_ = 0;
    std::uint64_t stepped_ = 0;
    std::uint64_t extrapolated_ = 0;
    std::size_t depth_ = 0;  ///< open blocks (fast-forward mode)
    bool logging_ = false;   ///< log decisions for a live block
};

/**
 * Retire as many instructions as possible from the pipe queues.
 * Returns true if at least one instruction retired.
 */
template <bool Log>
bool
Engine::executePass()
{
    // The hot state lives in locals for the length of one pipe's run,
    // so the stores into `result` cannot alias it.
    const QueueEntry *const entries = entries_;
    obs::Tracer *const tracer = tracer_;
    bool any = false;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
            std::size_t head = head_[p];
            const std::size_t tail = tail_[p];
            if (head == tail)
                continue;
            Cycles avail = pipeAvail_[p];
            PipeStats &ps = result.pipes[p];
            for (; head != tail; ++head) {
                const QueueEntry entry = entries[head];
                const Instr &i = *entry.instr;
                Decision d{&i, 0, {0, 0}};
                if (i.op == Opcode::Exec) {
                    const Cycles start =
                        readyTime(avail, entry.dispatchCycle, d);
                    avail = start + i.cycles;
                    ps.busyCycles += i.cycles;
                    ps.finishCycle = avail;
                    ++ps.instrs;
                    result.totalFlops += i.flops;
                    Bytes moved = 0;
                    for (unsigned b = 0; b < i.numBusUses; ++b) {
                        const isa::BusUse &use = i.busUses[b];
                        result.busBytes[static_cast<std::size_t>(
                            use.bus)] += use.bytes;
                        moved += use.bytes;
                    }
                    if (tracer)
                        tracer->span(obs::Domain::Core,
                                     std::uint32_t(p) + 1, i.tag, start,
                                     i.cycles, moved);
                } else if (i.op == Opcode::SetFlag) {
                    tokens_[i.flagId].push(
                        readyTime(avail, entry.dispatchCycle, d));
                } else if (i.op == Opcode::WaitFlag) {
                    TokenQueue &queue = tokens_[i.flagId];
                    if (queue.empty())
                        break; // pipe blocked; try others
                    const Cycles t = queue.pop();
                    // Stall accounting: cycles the pipe sat ready but
                    // waiting for the producer's token.
                    const Cycles ready =
                        readyTime(avail, entry.dispatchCycle, d);
                    if (t >= ready) {
                        ps.waitCycles += t - ready;
                        d.margin[1] = t - ready;
                    } else {
                        d.winners |= 2;
                        d.margin[1] = ready - t;
                    }
                    avail = std::max(ready, t);
                } else {
                    panic("CoreSim: Barrier reached a pipe queue");
                }
                ++result.instrsExecuted;
                if constexpr (Log)
                    scratch_.log.push_back(d);
            }
            if (head != head_[p]) {
                head_[p] = head;
                pipeAvail_[p] = avail;
                progress = true;
                any = true;
            }
        }
    }
    return any;
}

/**
 * Retire everything dispatched, and rewind the emptied pipe queues.
 * False if a pipe stays blocked.
 */
bool
Engine::drain()
{
    executePass();
    if (!queuesEmpty())
        return false;
    head_ = tail_ = base_;
    return true;
}

void
Engine::snapshot(Snapshot &s)
{
    s.clocks.assign(pipeAvail_.begin(), pipeAvail_.end());
    for (const PipeStats &ps : result.pipes)
        s.clocks.push_back(ps.finishCycle);
    s.clocks.push_back(dispatchClock_);
    s.depth.clear();
    for (const std::uint8_t f : scratch_.flags) {
        TokenQueue &q = tokens_[f];
        s.depth.push_back(q.size());
        s.clocks.insert(s.clocks.end(), q.begin(), q.end());
    }
    s.result = result;
    s.logEnd = scratch_.log.size();
}

void
Engine::enterBlock(std::size_t b)
{
    if (scratch_.frames.size() <= depth_)
        scratch_.frames.emplace_back();
    Frame &f = scratch_.frames[depth_++];
    f.block = b;
    f.trips = 0;
    f.unit = rate_ / std::gcd(blocks_[b].bodySize, std::uint64_t(rate_));
    f.paired = false;
    restart(f);
}

/**
 * Compare the units of @p f afresh from the current trip boundary. The
 * frame stays live if two units to compare and one to skip remain.
 */
void
Engine::restart(Frame &f)
{
    f.units = 0;
    f.refusals = 0;
    f.next = f.trips + f.unit;
    f.live = blocks_[f.block].trips - f.trips >= 3 * f.unit;
    f.logging = logging_ = loggingAt(depth_ - 1) || f.live;
    if (f.live)
        snapshot(f.snaps[0]);
}

/**
 * How many more units of @p f are sure to repeat its last unit: 0
 * unless, over the last three boundaries, every clock and queued token
 * time moved by the same amount per unit, with the same number of
 * queued tokens per flag, and both units took every max() the same way
 * (inner-block markers matching exactly). Then each unit is the same
 * affine map of the state, and each margin moves by a constant per
 * unit. A margin m that shrank by d keeps its winner for m / d more
 * units (at a tie both sides of the max() give the same value); with
 * no margin shrinking, every later unit repeats, by induction.
 */
std::uint64_t
Engine::settledUnits(const Frame &f) const
{
    const Snapshot &s0 = f.snaps[(f.units - 2) % 3];
    const Snapshot &s1 = f.snaps[(f.units - 1) % 3];
    const Snapshot &s2 = f.snaps[f.units % 3];
    if (s0.depth != s1.depth || s1.depth != s2.depth)
        return 0;
    for (std::size_t i = 0; i < s0.clocks.size(); ++i)
        if (s1.clocks[i] - s0.clocks[i] != s2.clocks[i] - s1.clocks[i])
            return 0;
    const std::vector<Decision> &log = scratch_.log;
    const std::size_t len = s1.logEnd - s0.logEnd;
    if (s2.logEnd - s1.logEnd != len)
        return 0;
    std::uint64_t held = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t k = 0; k < len; ++k) {
        const Decision &a = log[s0.logEnd + k];
        const Decision &b = log[s1.logEnd + k];
        if (a.instr != b.instr || a.winners != b.winners)
            return 0;
        if (!a.instr) {
            if (a.margin != b.margin)
                return 0;
            continue;
        }
        for (std::size_t m = 0; m < 2; ++m)
            if (b.margin[m] < a.margin[m])
                held = std::min(held,
                                b.margin[m] / (a.margin[m] - b.margin[m]));
    }
    return held;
}

/**
 * At a unit boundary of live @p f (two units stepped since restart()):
 * extrapolate the units that settledUnits() vouches for, up to the
 * block end, and stop watching it there. If a margin runs out first,
 * jump to just before its winner flips and compare afresh. After two
 * refusals in a row, compare pairs of units instead: a double-buffered
 * body alternates between two states, so only every other trip repeats.
 */
void
Engine::settle(Frame &f)
{
    const std::uint64_t remaining = blocks_[f.block].trips - f.trips;
    const std::uint64_t left = remaining / f.unit;
    const std::uint64_t held = left ? settledUnits(f) : 0;
    if (left == 0 || held >= left) {
        if (left)
            extrapolate(f, left);
        f.live = false;
        f.logging = logging_ = loggingAt(depth_ - 1);
    } else if (held > 0) {
        extrapolate(f, held);
        restart(f);
    } else if (!f.paired && ++f.refusals >= 2 &&
               remaining >= 3 * 2 * f.unit) {
        f.unit *= 2;
        f.paired = true;
        restart(f);
    }
}

/**
 * Advance @p units more units of @p f in closed form: every clock and
 * queued token time and every counter by its per-unit delta, WAIT
 * stalls as an arithmetic series. For an enclosing live block, log a
 * marker (the trip the jump starts at and its length) and each
 * decision's margins at the first and the last skipped unit (a margin
 * is linear in between).
 */
void
Engine::extrapolate(Frame &f, std::uint64_t units)
{
    const Snapshot &s0 = f.snaps[(f.units - 2) % 3];
    const Snapshot &s1 = f.snaps[(f.units - 1) % 3];
    const Snapshot &s2 = f.snaps[f.units % 3];
    const std::uint64_t n = units;
    auto step = [&](std::size_t i) {
        return n * (s2.clocks[i] - s1.clocks[i]);
    };
    std::size_t i = 0;
    for (std::size_t p = 0; p < isa::kNumPipes; ++p)
        pipeAvail_[p] += step(i++);
    for (std::size_t p = 0; p < isa::kNumPipes; ++p)
        result.pipes[p].finishCycle += step(i++);
    dispatchClock_ += step(i++);
    for (const std::uint8_t flag : scratch_.flags)
        for (Cycles &t : tokens_[flag])
            t += step(i++);

    const SimResult &r1 = s1.result;
    const SimResult &r2 = s2.result;
    result.totalFlops += n * (r2.totalFlops - r1.totalFlops);
    result.instrsExecuted += n * (r2.instrsExecuted - r1.instrsExecuted);
    for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
        PipeStats &ps = result.pipes[p];
        ps.busyCycles += n * (r2.pipes[p].busyCycles - r1.pipes[p].busyCycles);
        ps.instrs += n * (r2.pipes[p].instrs - r1.pipes[p].instrs);
        // A WAIT stall per unit falls as its margin shrinks, so `grow`
        // may be negative. Unsigned arithmetic wraps, and the sum is
        // exact modulo 2^64; the true sum is in range, so it is exact.
        const Cycles w2 =
            r2.pipes[p].waitCycles - r1.pipes[p].waitCycles;
        const Cycles grow =
            w2 - (r1.pipes[p].waitCycles - s0.result.pipes[p].waitCycles);
        ps.waitCycles += n * w2 + grow * (n * (n + 1) / 2);
    }
    for (std::size_t b = 0; b < isa::kNumBuses; ++b)
        result.busBytes[b] += n * (r2.busBytes[b] - r1.busBytes[b]);

    const std::uint64_t skipped = n * f.unit;
    extrapolated_ += skipped;
    if (loggingAt(depth_ - 1)) {
        std::vector<Decision> &log = scratch_.log;
        log.push_back({nullptr, 0, {f.trips, n}});
        const std::size_t len = s2.logEnd - s1.logEnd;
        for (std::size_t k = 0; k < len; ++k) {
            const Decision a = log[s0.logEnd + k];
            const Decision b = log[s1.logEnd + k];
            if (!b.instr) {
                log.push_back(b);
                continue;
            }
            // Shrinking margins wrap as `d`, exactly as above.
            Decision first = b, last = b;
            for (std::size_t m = 0; m < 2; ++m) {
                const Cycles d = b.margin[m] - a.margin[m];
                first.margin[m] += d;
                last.margin[m] += n * d;
            }
            log.push_back(first);
            log.push_back(last);
        }
    }
    f.trips += skipped;
}

/**
 * Drop the decisions of @p f that no later comparison reads: all but
 * the last unit's. Only for a frame with no live ancestor.
 */
void
Engine::trimLog(Frame &f)
{
    const std::size_t cut = f.snaps[f.units ? (f.units - 1) % 3 : 0].logEnd;
    std::vector<Decision> &log = scratch_.log;
    log.erase(log.begin(), log.begin() + std::ptrdiff_t(cut));
    for (Snapshot &s : f.snaps)
        s.logEnd -= std::min(s.logEnd, cut);
}

void
Engine::endTrip(std::size_t &pc, std::size_t &nb)
{
    Frame &f = scratch_.frames[depth_ - 1];
    const Block &b = blocks_[f.block];
    ++f.trips;
    if (f.live && f.trips == f.next) {
        f.next += f.unit;
        ++f.units;
        snapshot(f.snaps[f.units % 3]);
        if (f.units >= 2)
            settle(f);
        if (f.live && !loggingAt(depth_ - 1))
            trimLog(f);
    }
    if (f.trips < b.trips) {
        pc = b.begin;
        nb = f.block + 1;
        return;
    }
    --depth_;
    logging_ = loggingAt(depth_);
    if (!logging_)
        scratch_.log.clear();
}

void
Engine::deadlock(std::size_t pc) const
{
    // Report per-pipe head state for debugging.
    for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
        if (head_[p] == tail_[p])
            continue;
        const Instr &i = *entries_[head_[p]].instr;
        warn("deadlock: pipe %s blocked on %s flag %u (tag %s), "
             "%zu queued",
             isa::toString(static_cast<Pipe>(p)),
             i.op == Opcode::WaitFlag ? "WAIT" : "instr",
             unsigned(i.flagId), i.tag ? i.tag : "-",
             tail_[p] - head_[p]);
    }
    panic("CoreSim: program '%s' deadlocked at instr %zu/%zu",
          program_.name().c_str(), pc, code_.size());
}

bool
Engine::run(RunStats &stats)
{
    const std::size_t n = code_.size();
    std::size_t pc = 0; // next instruction to dispatch
    std::size_t nb = 0; // next block to enter
    while (true) {
        bool progress = false;

        // Dispatch phase: feed pipe queues until a barrier forces a
        // drain (or the program ends). Block entries and trip ends
        // drain the pipes first.
        while (true) {
            std::size_t stop = n;
            if (depth_)
                stop = blocks_[scratch_.frames[depth_ - 1].block].end;
            if (nb < blocks_.size())
                stop = std::min<std::size_t>(stop, blocks_[nb].begin);
            bool barred = false;
            for (; pc < stop; ++pc) {
                const Instr &i = code_[pc];
                if (i.op == Opcode::Barrier) {
                    if (!queuesEmpty()) {
                        barred = true;
                        break; // drain before consuming the barrier
                    }
                    dispatchClock_ =
                        std::max(dispatchClock_, maxPipeAvail());
                    dispatchedThisCycle_ = 0;
                    ++stepped_;
                    ++result.instrsExecuted;
                    ++result.barriers;
                } else {
                    dispatch(i);
                }
                progress = true;
            }
            if (barred)
                break;
            if (depth_ &&
                pc == blocks_[scratch_.frames[depth_ - 1].block].end) {
                if (!drain())
                    return false;
                endTrip(pc, nb);
            } else if (nb < blocks_.size() && blocks_[nb].begin == pc) {
                if (!drain())
                    return false;
                enterBlock(nb++);
            } else {
                break; // the program end
            }
            progress = true;
        }

        if (executePass())
            progress = true;

        if (pc >= n && queuesEmpty())
            break;

        if (!progress) {
            if (!blocks_.empty())
                return false;
            deadlock(pc);
        }
    }

    result.totalCycles = std::max(dispatchClock_, maxPipeAvail());
    stats.steppedInstrs += stepped_;
    stats.extrapolatedTrips += extrapolated_;
    return true;
}

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
CoreSim::run(const isa::Program &program, RunStats *stats) const
{
    thread_local RunScratch scratch;
    // One gate check per run; record sites stay branch-free when
    // tracing is off.
    obs::Tracer *const tracer = obs::Tracer::current();
    const unsigned rate = std::max(1u, config_.dispatchPerCycle);
    RunStats local;
    RunStats &counts = stats ? *stats : local;

    SimResult result;
    bool done = false;
    // Traces record every instruction in flat order, so a traced run
    // steps the flattened program.
    if (program.hasBlocks() && !tracer &&
        fastForwardable(program, scratch)) {
        Engine engine(program, rate, scratch, nullptr);
        if (engine.run(counts)) {
            result = engine.result;
            done = true;
        }
    }
    if (!done) {
        const isa::Program flat =
            program.hasBlocks() ? program.flatten() : isa::Program();
        Engine engine(program.hasBlocks() ? flat : program, rate, scratch,
                      tracer);
        engine.run(counts);
        result = engine.result;
    }

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
