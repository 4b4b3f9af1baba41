/**
 * @file
 * Fluid chip simulation implementation.
 *
 * One event loop serves the fault-free and the degraded model: an
 * empty fault plan is a plan whose faults never strike. Each rate
 * re-solve is one iteration of a plain loop that runs while work
 * remains, and it walks only the *active set* (alive cores holding a
 * task, ascending index) in two serial passes:
 *  - reduce: count memory-active cores and take the minima of the
 *    remaining compute time, the remaining bytes and the repair
 *    wake-ups; dt = min(wake - now, minCompute, minBytes / rate) is
 *    exact because min is exact and correctly rounded division by a
 *    positive rate is monotone;
 *  - advance: move every running core by dt, add its drained bytes to
 *    the shared total in core-index order, and reload cores whose
 *    task completed in the same pass.
 * Fault strikes come from a min-heap of (next fault time, core) and
 * idle survivors wait in a min-heap of core indices for orphaned
 * work, so neither costs a walk over all cores.
 *
 * Determinism notes (the sweep benches diff output across thread
 * counts): the loop runs on the calling thread, every reduction is
 * exact or a core-index-ordered sum, and orphans are pushed and
 * popped in core-index order — so results are byte-identical at any
 * ASCEND_THREADS. tests/golden/chip_sim_fuzz.txt pins the arithmetic
 * sequence on seeded workloads under dense fault plans.
 */

#include "soc/chip_sim.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <utility>

#include "common/error.hh"
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

    simAssert(mem_bytes_per_sec > 0, "memory capacity must be positive");
    const std::size_t cores = per_core.size();
    const double inf = std::numeric_limits<double>::infinity();
    const char *const mode = plan.empty() ? "fault-free" : "degraded";

    struct CoreState
    {
        // Read by both passes of every event; kept side by side.
        double computeLeft = 0;
        double bytesLeft = 0;
        double slowdown = 1.0;      ///< straggler compute stretch
        double pausedUntil = 0;     ///< transient repair window
        // Touched only when a task or a fault event changes hands.
        std::size_t next = 0;       ///< index into own queue
        CoreTask current;           ///< full values, for restart
        bool active = false;        ///< holds a task (in the active set)
        bool alive = true;
        std::size_t eventIdx = 0;   ///< next unapplied fault event
        double taskStart = 0;       ///< sim time the current task began
        double finish = 0;
    };
    std::vector<CoreState> state(cores);
    obs::Tracer *const tracer = obs::Tracer::current();
    for (std::size_t c = 0; c < cores; ++c)
        if (c < plan.stragglerFactor.size())
            state[c].slowdown =
                std::max(plan.stragglerFactor[c], 1.0);

    ChipSimResult result;
    std::deque<CoreTask> orphans; ///< work shed by dead cores
    std::vector<std::size_t> active; ///< alive cores with a task, ascending
    MinHeap<std::size_t> idle; ///< alive idle cores (dead ones skipped)
    MinHeap<std::pair<double, std::size_t>> strikes; ///< (next fault, core)

    auto start_task = [](CoreState &cs, const CoreTask &t) {
        cs.current = t;
        cs.computeLeft = t.computeSeconds;
        cs.bytesLeft = double(t.memBytes);
        cs.active = cs.computeLeft > 0 || cs.bytesLeft > 0;
        return cs.active;
    };

    // Advance cs to its next non-trivial task: own queue first, then
    // the orphan pool (lowest-index idle core pulls first since the
    // callers visit cores in order). Returns whether it holds a task.
    auto load_next = [&](std::size_t c, double now) {
        CoreState &cs = state[c];
        while (cs.next < per_core[c].size()) {
            if (start_task(cs, per_core[c][cs.next])) {
                cs.taskStart = now;
                return true;
            }
            ++cs.next; // zero task: completes instantly
        }
        while (!orphans.empty()) {
            const CoreTask t = orphans.front();
            orphans.pop_front();
            ++result.reDispatchedTasks;
            if (start_task(cs, t)) {
                cs.taskStart = now;
                return true;
            }
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
        bool died = false;
        for (const std::size_t c : due) {
            CoreState &cs = state[c];
            const auto &events = plan.coreEvents[c];
            while (cs.alive && cs.eventIdx < events.size() &&
                   events[cs.eventIdx].timeSec <= now) {
                const resilience::FaultEvent &e = events[cs.eventIdx];
                ++cs.eventIdx;
                ++result.coreFailures;
                if (e.kind == resilience::FaultKind::CorePermanent) {
                    died = true;
                    cs.alive = false;
                    cs.finish = e.timeSec;
                    if (cs.active) // shed in-flight task, restarted
                        orphans.push_back(cs.current);
                    for (std::size_t i = cs.next + (cs.active ? 1 : 0);
                         i < per_core[c].size(); ++i)
                        orphans.push_back(per_core[c][i]);
                    cs.next = per_core[c].size();
                    cs.active = false;
                } else { // transient: pause and restart from scratch
                    cs.pausedUntil = std::max(
                        cs.pausedUntil, e.timeSec + e.durationSec);
                    if (cs.active) {
                        cs.computeLeft = cs.current.computeSeconds;
                        cs.bytesLeft = double(cs.current.memBytes);
                    }
                }
            }
            arm(c);
        }
        if (died)
            active.erase(std::remove_if(active.begin(), active.end(),
                                        [&](std::size_t c) {
                                            return !state[c].active;
                                        }),
                         active.end());
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
            active.push_back(c);
        else
            idle.push(c);
    }

    int guard = 0;
    auto count_event = [&] {
        if (++guard <= options.guardLimit)
            return;
        std::uint64_t done = 0;
        for (const CoreState &cs : state)
            done += cs.next;
        throwGuard(mode, guard, now, active.size(), cores, done,
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
    while (!active.empty() || !orphans.empty()) {
        // Idle survivors pick up orphaned work as it appears.
        const std::size_t held = active.size();
        while (!orphans.empty() && !idle.empty()) {
            const std::size_t c = idle.top();
            idle.pop();
            if (!state[c].alive)
                continue;
            if (load_next(c, now)) {
                active.push_back(c);
            } else { // the orphans were all zero tasks
                idle.push(c);
            }
        }
        if (active.size() != held)
            std::sort(active.begin(), active.end());

        // Reduce pass. A core makes progress only out of repair.
        unsigned mem_active = 0;
        bool any_running = false;
        double min_compute = inf;
        double min_bytes = inf;
        double wake = strikes.empty() ? inf : strikes.top().first;
        for (const std::size_t c : active) {
            const CoreState &cs = state[c];
            if (now < cs.pausedUntil) {
                wake = std::min(wake, cs.pausedUntil);
                continue;
            }
            any_running = true;
            if (cs.computeLeft > 0)
                min_compute =
                    std::min(min_compute, cs.computeLeft * cs.slowdown);
            if (cs.bytesLeft > 0) {
                ++mem_active;
                min_bytes = std::min(min_bytes, cs.bytesLeft);
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

        // Advance pass: running cores move by dt (paused ones hold),
        // drained bytes fold in core-index order — floating-point
        // addition is the one non-exact reduction — and completed
        // cores reload in that same order, so the orphan pool is
        // popped lowest-index core first.
        const double t0 = now;
        const double share = rate * dt;
        now += dt;
        double moved_total = bytes_moved; // local, so kept in a register
        std::size_t kept = 0;
        for (const std::size_t c : active) {
            CoreState &cs = state[c];
            if (t0 >= cs.pausedUntil) {
                if (cs.computeLeft > 0)
                    cs.computeLeft = std::max(
                        0.0, cs.computeLeft - dt / cs.slowdown);
                if (cs.bytesLeft > 0) {
                    const double moved = std::min(cs.bytesLeft, share);
                    cs.bytesLeft -= moved;
                    moved_total += moved;
                }
                if (cs.computeLeft <= 0 && cs.bytesLeft <= 0) {
                    if (tracer) {
                        // The span covers the whole residency
                        // including repair pauses and restarts, as a
                        // wall-observer of the chip would see it.
                        const std::uint64_t start = obs::traceNs(cs.taskStart);
                        tracer->span(obs::Domain::Chip,
                                     std::uint32_t(c) + 1, "task", start,
                                     obs::traceNs(now) - start,
                                     cs.current.memBytes);
                    }
                    ++cs.next;
                    if (!load_next(c, now)) {
                        idle.push(c);
                        continue;
                    }
                }
            }
            active[kept++] = c;
        }
        active.resize(kept);
        bytes_moved = moved_total;
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
