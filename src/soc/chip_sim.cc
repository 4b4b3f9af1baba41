/**
 * @file
 * Fluid chip simulation implementation.
 *
 * One event loop serves the fault-free and the degraded model: an
 * empty fault plan is a plan whose faults never strike. Each rate
 * re-solve is one iteration of a plain loop that runs while work
 * remains.
 *
 * The loop advances *cohorts*, not cores. A cohort is a set of active
 * cores (alive, holding a task) whose fluid state — remaining compute,
 * remaining bytes, straggler factor, repair deadline — is bit-identical;
 * every active core holds its cohort's id in a dense array, and a
 * cohort's members form a linked list through the cores. Cores sharing
 * a state advance identically, so one iteration is:
 *  - reduce, once per cohort: the memory-active count (an integer sum
 *    of member counts) and the minima of the remaining compute time,
 *    the remaining bytes and the repair wake-ups;
 *    dt = min(wake - now, minCompute, minBytes / rate) is exact
 *    because min is exact and correctly rounded division by a positive
 *    rate is monotone, so it equals the per-core reduce bit for bit;
 *  - advance, once per cohort: move it by dt and set its mark, one
 *    byte saying whether each member drained the instant's common
 *    `share`, drained less (its own `moved`: the last bytes of its
 *    task), and whether its task completed. A per-core byte array
 *    carries each active core's cohort mark (0 for every other core);
 *    only a cohort whose mark changed rewrites its members' bytes;
 *  - fold, over the mark array in 64-bit words: the shared byte total
 *    is the one non-exact reduction, so it must add every core's
 *    drained bytes in core-index order. A run of cores that drained
 *    `share` is a run of equal adds, which addRepeated
 *    (common/exact_sum.hh) does exactly in one step; it is flushed
 *    before each core that drained its own `moved`. A core that
 *    drained nothing adds +0.0, which leaves the total's bits
 *    unchanged, so it is skipped. The same pass collects completed
 *    cores in index order. The pass costs O(cores / 8 + changed
 *    cores), not O(active cores);
 *  - reload the collected cores in index order, so the orphan pool is
 *    popped and tracer spans are emitted lowest-index core first.
 * A core re-groups whenever it takes a new state at the current
 * instant (a task load, an orphan pickup, a transient restart): it
 * first tries the cohort of the previous join, since the members of a
 * finished cohort usually load one next state, and then a per-instant
 * index from the state's bits to a cohort id, cleared at every
 * advance. Freed ids are recycled and leave the index.
 *
 * Fault strikes come from a min-heap of (next fault time, core) and
 * idle survivors wait in a min-heap of core indices for orphaned
 * work, so neither costs a walk over all cores; the active cores are
 * only counted.
 *
 * Determinism notes (the sweep benches diff output across thread
 * counts): the loop runs on the calling thread, every reduction is
 * exact or a core-index-ordered sum, and orphans are pushed and
 * popped in core-index order — so results are byte-identical at any
 * ASCEND_THREADS. tests/golden/chip_sim_fuzz.txt pins the arithmetic
 * sequence on seeded workloads under dense fault plans, including
 * class-structured ones whose cohorts faults split and merge and
 * 4,096-core chips whose share runs cross many binades.
 */

#include "soc/chip_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <queue>
#include <utility>

#include "common/error.hh"
#include "common/exact_sum.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_session.hh"

namespace ascend {
namespace soc {

namespace {

[[noreturn]] void
throwGuard(const char *which, int events, double now,
           std::size_t active_cores, std::size_t cores,
           std::uint64_t tasks_done, std::uint64_t tasks_total)
{
    throwError(ErrorCode::GuardExceeded,
               "runChipSim(%s): event-count guard exceeded after %d "
               "events at t=%.9g s: %zu/%zu cores active, "
               "%llu/%llu tasks done — likely a numerical livelock "
               "in the task set",
               which, events, now, active_cores, cores,
               static_cast<unsigned long long>(tasks_done),
               static_cast<unsigned long long>(tasks_total));
}

std::uint64_t
totalTasks(const std::vector<std::vector<CoreTask>> &per_core)
{
    std::uint64_t n = 0;
    for (const auto &q : per_core)
        n += q.size();
    return n;
}

/** A min-heap of @p T (std::priority_queue with std::greater). */
template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

/** The fluid state of an active core; a cohort's members share it. */
struct FluidState
{
    double computeLeft = 0;
    double bytesLeft = 0;
    double slowdown = 1.0;  ///< straggler compute stretch
    double pausedUntil = 0; ///< transient repair window

    bool
    sameBits(const FluidState &o) const
    {
        return std::memcmp(this, &o, sizeof(*this)) == 0;
    }
};

/** No core / no cohort. */
constexpr std::uint32_t kNone = ~0u;

// The fold reads eight mark bytes as one word, lowest core lowest.
static_assert(std::endian::native == std::endian::little,
              "the mark fold assumes a little-endian word");

/// @{ The bits of a core's byte in the fold's mark array.
constexpr std::uint8_t kShare = 1; ///< drained the instant's common share
constexpr std::uint8_t kOwn = 2;   ///< drained its cohort's smaller `moved`
constexpr std::uint8_t kDone = 4;  ///< its task completed
/// @}

/** Active cores with a bit-identical FluidState. */
struct Cohort
{
    FluidState s;
    double moved = 0;          ///< bytes each member drained last advance
    std::uint32_t members = 0; ///< 0 = a free id
    std::uint32_t head = kNone; ///< first member; the list runs per core
    std::uint8_t mark = 0;     ///< the mark byte each member carries
};

/**
 * The per-instant map from a FluidState's bits to the id of the cohort
 * holding it: open addressing with linear probing, each slot a cohort
 * id whose cohort stores the key. An advance changes every state, so
 * the loop clears the index at each one.
 */
class CohortIndex
{
  public:
    explicit CohortIndex(std::size_t cores)
    {
        std::size_t n = 16;
        while (n < 2 * cores)
            n *= 2;
        slots_.assign(n, kNone);
    }

    /** The cohort in @p cohorts holding @p s, or kNone. */
    std::uint32_t
    find(const FluidState &s, const std::vector<Cohort> &cohorts) const
    {
        for (std::size_t i = home(s);; i = (i + 1) & mask()) {
            const std::uint32_t k = slots_[i];
            if (k == kNone)
                return kNone;
            if (k != kErased && cohorts[k].s.sameBits(s))
                return k;
        }
    }

    /** Index cohort @p k, whose state @p s find() did not hold. */
    void
    insert(std::uint32_t k, const FluidState &s)
    {
        // Forgetting entries only forgoes grouping, so a full table
        // simply starts over.
        if (2 * used_.size() >= slots_.size())
            clear();
        std::size_t i = home(s);
        while (slots_[i] != kNone)
            i = (i + 1) & mask();
        slots_[i] = k;
        used_.push_back(i);
    }

    /**
     * Drop cohort @p k, freed with state @p s, if it is indexed: its
     * id is recycled, and a stale entry would let a core join it.
     */
    void
    erase(std::uint32_t k, const FluidState &s)
    {
        for (std::size_t i = home(s); slots_[i] != kNone;
             i = (i + 1) & mask())
            if (slots_[i] == k) {
                slots_[i] = kErased;
                return;
            }
    }

    void
    clear()
    {
        for (const std::size_t i : used_)
            slots_[i] = kNone;
        used_.clear();
    }

  private:
    static constexpr std::uint32_t kErased = kNone - 1;

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(const FluidState &s) const
    {
        std::uint64_t w[4];
        static_assert(sizeof(w) == sizeof(FluidState), "padded state");
        std::memcpy(w, &s, sizeof(w));
        std::uint64_t h = 0;
        for (const std::uint64_t x : w)
            h = (h ^ x ^ (x >> 29)) * 0x9e3779b97f4a7c15ull;
        return std::size_t(h >> 32) & mask();
    }

    std::vector<std::uint32_t> slots_;
    std::vector<std::size_t> used_; ///< filled slots, for clear()
};

} // anonymous namespace

ChipSimResult
runChipSim(const std::vector<std::vector<CoreTask>> &per_core,
           double mem_bytes_per_sec, const ChipSimOptions &options)
{
    return runChipSim(per_core, mem_bytes_per_sec,
                      resilience::ChipFaultPlan{}, options);
}

ChipSimResult
runChipSim(const std::vector<std::vector<CoreTask>> &per_core,
           double mem_bytes_per_sec,
           const resilience::ChipFaultPlan &plan,
           const ChipSimOptions &options)
{
    static runtime::PerfScope &perf = runtime::perfScope("chip-sim");
    const runtime::PerfTimer timer(perf);

    if (!(mem_bytes_per_sec > 0) || !std::isfinite(mem_bytes_per_sec))
        throwError(ErrorCode::ConfigValidation,
                   "runChipSim: memory capacity must be positive and "
                   "finite, got %g bytes/s",
                   mem_bytes_per_sec);
    const std::size_t cores = per_core.size();
    const double inf = std::numeric_limits<double>::infinity();
    const char *const mode = plan.empty() ? "fault-free" : "degraded";

    // Per-core state the fluid advance never reads. While a core is
    // active, its remaining compute and bytes live in its cohort.
    struct CoreState
    {
        std::size_t next = 0;       ///< index into own queue
        CoreTask current;           ///< full values, for restart
        double slowdown = 1.0;      ///< straggler compute stretch
        double pausedUntil = 0;     ///< transient repair window
        double taskStart = 0;       ///< sim time the current task began
        double finish = 0;
        std::size_t eventIdx = 0;   ///< next unapplied fault event
        bool active = false;        ///< holds a task (in a cohort)
        bool alive = true;
    };
    std::vector<CoreState> state(cores);
    obs::Tracer *const tracer = obs::Tracer::current();
    for (std::size_t c = 0; c < cores; ++c)
        if (c < plan.stragglerFactor.size())
            state[c].slowdown =
                std::max(plan.stragglerFactor[c], 1.0);

    ChipSimResult result;
    std::uint64_t tasks_done = 0;
    std::deque<CoreTask> orphans; ///< work shed by dead cores
    std::size_t n_active = 0; ///< alive cores holding a task
    MinHeap<std::size_t> idle; ///< alive idle cores (dead ones skipped)
    MinHeap<std::pair<double, std::size_t>> strikes; ///< (next fault, core)

    std::vector<Cohort> cohorts;
    std::vector<std::uint32_t> free_ids;
    std::vector<std::uint32_t> cohort_of(cores, kNone);
    // Each cohort's members form a doubly linked list through the cores.
    std::vector<std::uint32_t> next_member(cores, kNone);
    std::vector<std::uint32_t> prev_member(cores, kNone);
    // One mark byte per core, padded to whole 64-bit words; an inactive
    // core's byte is 0. join() need not write it: a joinable cohort was
    // made after the last advance, so its mark is still 0 too.
    std::vector<std::uint8_t> marks((cores + 7) / 8 * 8, 0);
    CohortIndex index(cores);
    std::uint32_t last_join = kNone; ///< joined since the last advance

    // Core c takes fluid state (compute, bytes) at the current instant.
    // Cores that finish together often load the same next state, so
    // the cohort of the previous join is tried before the index.
    auto join = [&](std::size_t c, double compute, double bytes) {
        const FluidState s{compute, bytes, state[c].slowdown,
                           state[c].pausedUntil};
        std::uint32_t k = last_join;
        if (k == kNone || cohorts[k].members == 0 ||
            !cohorts[k].s.sameBits(s)) {
            k = index.find(s, cohorts);
            if (k == kNone) {
                if (free_ids.empty()) {
                    k = std::uint32_t(cohorts.size());
                    cohorts.emplace_back();
                } else {
                    k = free_ids.back();
                    free_ids.pop_back();
                }
                cohorts[k] = Cohort{s};
                index.insert(k, s);
            }
            last_join = k;
        }
        Cohort &h = cohorts[k];
        ++h.members;
        prev_member[c] = kNone;
        next_member[c] = h.head;
        if (h.head != kNone)
            prev_member[h.head] = std::uint32_t(c);
        h.head = std::uint32_t(c);
        cohort_of[c] = k;
    };
    auto leave = [&](std::size_t c) {
        const std::uint32_t k = cohort_of[c];
        Cohort &h = cohorts[k];
        const std::uint32_t prev = prev_member[c], next = next_member[c];
        (prev == kNone ? h.head : next_member[prev]) = next;
        if (next != kNone)
            prev_member[next] = prev;
        marks[c] = 0;
        if (--h.members == 0) {
            index.erase(k, h.s);
            free_ids.push_back(k);
        }
    };

    auto start_task = [&](std::size_t c, const CoreTask &t, double now) {
        CoreState &cs = state[c];
        cs.current = t;
        cs.active = t.computeSeconds > 0 || t.memBytes > 0;
        if (cs.active) {
            cs.taskStart = now;
            join(c, t.computeSeconds, double(t.memBytes));
        } else {
            ++tasks_done; // zero task: completes instantly
        }
        return cs.active;
    };

    // Advance core c to its next non-trivial task: own queue first,
    // then the orphan pool (lowest-index idle core pulls first since
    // the callers visit cores in order). Returns whether it holds a
    // task.
    auto load_next = [&](std::size_t c, double now) {
        CoreState &cs = state[c];
        for (; cs.next < per_core[c].size(); ++cs.next)
            if (start_task(c, per_core[c][cs.next], now))
                return true;
        while (!orphans.empty()) {
            const CoreTask t = orphans.front();
            orphans.pop_front();
            ++result.reDispatchedTasks;
            if (start_task(c, t, now))
                return true;
        }
        cs.active = false;
        cs.finish = now;
        return false;
    };

    // Queue core c's next fault strike. A NaN time never strikes, and
    // blocks the faults queued behind it.
    auto arm = [&](std::size_t c) {
        if (c >= plan.coreEvents.size() || !state[c].alive)
            return;
        const auto &events = plan.coreEvents[c];
        const std::size_t i = state[c].eventIdx;
        if (i < events.size() && !std::isnan(events[i].timeSec))
            strikes.emplace(events[i].timeSec, c);
    };

    // Apply every fault due at or before @p now, in core-index order
    // (the orphan pool's order).
    std::vector<std::size_t> due;
    auto apply_events = [&](double now) {
        due.clear();
        while (!strikes.empty() && strikes.top().first <= now) {
            due.push_back(strikes.top().second);
            strikes.pop();
        }
        std::sort(due.begin(), due.end());
        for (const std::size_t c : due) {
            CoreState &cs = state[c];
            const auto &events = plan.coreEvents[c];
            while (cs.alive && cs.eventIdx < events.size() &&
                   events[cs.eventIdx].timeSec <= now) {
                const resilience::FaultEvent &e = events[cs.eventIdx];
                ++cs.eventIdx;
                ++result.coreFailures;
                if (e.kind == resilience::FaultKind::CorePermanent) {
                    cs.alive = false;
                    cs.finish = e.timeSec;
                    if (cs.active) { // shed in-flight task, restarted
                        orphans.push_back(cs.current);
                        leave(c);
                        --n_active;
                    }
                    for (std::size_t i = cs.next + (cs.active ? 1 : 0);
                         i < per_core[c].size(); ++i)
                        orphans.push_back(per_core[c][i]);
                    cs.next = per_core[c].size();
                    cs.active = false;
                } else { // transient: pause and restart from scratch
                    cs.pausedUntil = std::max(
                        cs.pausedUntil, e.timeSec + e.durationSec);
                    if (cs.active) {
                        leave(c);
                        join(c, cs.current.computeSeconds,
                             double(cs.current.memBytes));
                    }
                }
            }
            arm(c);
        }
    };

    double now = 0;
    double bytes_moved = 0;
    for (std::size_t c = 0; c < cores; ++c)
        arm(c);
    apply_events(now);
    for (std::size_t c = 0; c < cores; ++c) {
        if (!state[c].alive)
            continue;
        if (load_next(c, now))
            ++n_active;
        else
            idle.push(c);
    }

    int guard = 0;
    auto count_event = [&] {
        if (++guard > options.guardLimit)
            throwGuard(mode, guard, now, n_active, cores, tasks_done,
                       totalTasks(per_core));
    };

    // One re-solve per iteration. It either advances the fluid state
    // by one completion interval, or — when every active core is in
    // repair or orphans have no survivor to run them — jumps the
    // clock to the next external wake-up (fault strike or repair
    // completion). The loop runs while work remains, and stops early
    // when no survivor can ever run it. perf/driver.cc reads the
    // "des-kernel" scope for its des.kernel_s metric, so the loop
    // keeps that name.
    static runtime::PerfScope &loop_perf =
        runtime::perfScope("des-kernel");
    const runtime::PerfTimer loop_timer(loop_perf);
    std::vector<std::size_t> completed(cores); ///< fold pass output
    while (n_active > 0 || !orphans.empty()) {
        // Idle survivors pick up orphaned work as it appears.
        while (!orphans.empty() && !idle.empty()) {
            const std::size_t c = idle.top();
            idle.pop();
            if (!state[c].alive)
                continue;
            if (load_next(c, now)) {
                ++n_active;
            } else { // the orphans were all zero tasks
                idle.push(c);
            }
        }

        // Reduce, per cohort. A core makes progress only out of repair.
        unsigned mem_active = 0;
        bool any_running = false;
        double min_compute = inf;
        double min_bytes = inf;
        double wake = strikes.empty() ? inf : strikes.top().first;
        for (const Cohort &h : cohorts) {
            if (h.members == 0)
                continue;
            if (now < h.s.pausedUntil) {
                wake = std::min(wake, h.s.pausedUntil);
                continue;
            }
            any_running = true;
            if (h.s.computeLeft > 0)
                min_compute =
                    std::min(min_compute, h.s.computeLeft * h.s.slowdown);
            if (h.s.bytesLeft > 0) {
                mem_active += h.members;
                min_bytes = std::min(min_bytes, h.s.bytesLeft);
            }
        }

        if (!any_running) {
            if (wake == inf) {
                // Work remains but no core can ever run it again.
                result.completed = false;
                break;
            }
            now = wake;
            apply_events(now);
            count_event();
            continue;
        }

        const double rate =
            mem_active ? mem_bytes_per_sec / mem_active : 0;
        double dt = std::min(wake - now, min_compute);
        if (mem_active)
            dt = std::min(dt, min_bytes / rate);
        simAssert(dt >= 0 && dt < inf,
                  "chip sim event time must be finite");
        dt = std::max(dt, 1e-15); // numerical floor

        // Advance, per cohort: running cohorts move by dt, paused ones
        // hold and drain nothing. A cohort whose mark changes rewrites
        // its members' bytes.
        const double t0 = now;
        const double share = rate * dt;
        now += dt;
        for (Cohort &h : cohorts) {
            if (h.members == 0)
                continue;
            h.moved = 0;
            std::uint8_t mark = 0;
            if (!(t0 < h.s.pausedUntil)) {
                FluidState &s = h.s;
                if (s.computeLeft > 0)
                    s.computeLeft =
                        std::max(0.0, s.computeLeft - dt / s.slowdown);
                if (s.bytesLeft > 0) {
                    h.moved = std::min(s.bytesLeft, share);
                    s.bytesLeft -= h.moved;
                    mark = h.moved == share ? kShare : kOwn;
                }
                if (s.computeLeft <= 0 && s.bytesLeft <= 0)
                    mark |= kDone;
            }
            if (mark != h.mark) {
                h.mark = mark;
                for (std::uint32_t c = h.head; c != kNone;
                     c = next_member[c])
                    marks[c] = mark;
            }
        }
        index.clear(); // every indexed state just changed
        last_join = kNone;

        // Fold, in core-index order, one 64-bit word of marks at a
        // time. The cores that drained `share` only count: a run of n
        // equal adds is one exact addRepeated, flushed before a core
        // that drained its own `moved`. Cores that drained nothing
        // add +0.0, which leaves the total's bits unchanged, and are
        // skipped. Completed cores are collected in index order.
        constexpr std::uint64_t kBytes = 0x0101010101010101ull;
        double moved_total = bytes_moved; // local, so kept in a register
        std::uint64_t run = 0;
        std::size_t n_done = 0;
        for (std::size_t i = 0; i < marks.size(); i += 8) {
            std::uint64_t w;
            std::memcpy(&w, &marks[i], sizeof(w));
            if (w & (kBytes * kOwn)) {
                for (std::size_t c = i; c < i + 8; ++c) {
                    run += marks[c] & kShare;
                    if (marks[c] & kOwn) {
                        moved_total =
                            addRepeated(moved_total, share, run) +
                            cohorts[cohort_of[c]].moved;
                        run = 0;
                    }
                }
            } else {
                // Sum the word's kShare bits into its top byte: the
                // library targets baseline x86-64, where a popcount is
                // a libgcc call.
                run += ((w & kBytes) * kBytes) >> 56;
            }
            for (std::uint64_t d = w & (kBytes * kDone); d != 0; d &= d - 1)
                completed[n_done++] = i + (std::countr_zero(d) >> 3);
        }
        bytes_moved = addRepeated(moved_total, share, run);

        // Reload completed cores in index order.
        for (std::size_t i = 0; i < n_done; ++i) {
            const std::size_t c = completed[i];
            CoreState &cs = state[c];
            if (tracer) {
                // The span covers the whole residency including
                // repair pauses and restarts, as a wall-observer of
                // the chip would see it.
                const std::uint64_t start = obs::traceNs(cs.taskStart);
                tracer->span(obs::Domain::Chip, std::uint32_t(c) + 1,
                             "task", start, obs::traceNs(now) - start,
                             cs.current.memBytes);
            }
            ++tasks_done;
            ++cs.next;
            leave(c);
            if (!load_next(c, now)) {
                idle.push(c);
                --n_active;
            }
        }
        apply_events(now);
        count_event();
    }

    result.makespan = now;
    result.coreFinish.reserve(cores);
    for (const CoreState &cs : state)
        result.coreFinish.push_back(cs.finish);
    result.avgMemUtilization =
        now > 0 ? bytes_moved / (mem_bytes_per_sec * now) : 0.0;
    return result;
}

std::vector<CoreTask>
coreTasks(const runtime::SimSession &session, const model::Network &net)
{
    const double clk_hz = session.config().clockGhz * 1e9;
    std::vector<CoreTask> tasks;
    tasks.reserve(net.layers.size());
    for (const auto &run : session.runInference(net)) {
        CoreTask t;
        t.computeSeconds = double(run.result.totalCycles) / clk_hz;
        t.memBytes = run.result.extBytes();
        tasks.push_back(t);
    }
    return tasks;
}

} // namespace soc
} // namespace ascend
