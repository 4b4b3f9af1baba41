/**
 * @file
 * Determinism fuzz: one seeded sweep asserting byte-identical result
 * fingerprints across thread-pool sizes (the in-process equivalent of
 * ASCEND_THREADS, via runtime::ScopedThreadPoolSize), and a frozen
 * golden of chip-sim fuzz fingerprints.
 *
 * Fingerprints print every field with %.17g / exact integers, so any
 * single-ULP drift in a floating-point reduction fails the EXPECT_EQ
 * with a readable diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/codec.hh"
#include "common/rng.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "resilience/fault_schedule.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"
#include "soc/chip_sim.hh"

#include "golden_test.hh"

namespace ascend {
namespace {

constexpr unsigned kThreadCounts[] = {1, 4, 13};

std::string
fp(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fingerprint(const soc::ChipSimResult &r)
{
    std::string s = "makespan=" + fp(r.makespan) +
                    " memutil=" + fp(r.avgMemUtilization) +
                    " failures=" + std::to_string(r.coreFailures) +
                    " redispatched=" +
                    std::to_string(r.reDispatchedTasks) +
                    " completed=" + std::to_string(r.completed);
    for (double f : r.coreFinish)
        s += " " + fp(f);
    return s;
}

std::string
fingerprint(const core::SimResult &r)
{
    std::string s = "cycles=" + std::to_string(r.totalCycles) +
                    " flops=" + std::to_string(r.totalFlops) +
                    " instrs=" + std::to_string(r.instrsExecuted) +
                    " barriers=" + std::to_string(r.barriers);
    for (const core::PipeStats &p : r.pipes)
        s += " [" + std::to_string(p.busyCycles) + "," +
             std::to_string(p.finishCycle) + "," +
             std::to_string(p.waitCycles) + "," +
             std::to_string(p.instrs) + "]";
    for (Bytes b : r.busBytes)
        s += " " + std::to_string(b);
    return s;
}

/** Seeded random chip workload: @p cores queues of @p tasks each. */
std::vector<std::vector<soc::CoreTask>>
randomWorkload(std::uint64_t seed, unsigned cores, unsigned tasks)
{
    Rng rng(seed);
    std::vector<std::vector<soc::CoreTask>> work(cores);
    for (auto &queue : work) {
        queue.resize(tasks);
        for (soc::CoreTask &t : queue) {
            t.computeSeconds = 1e-5 * (1.0 + rng.uniformReal() * 9.0);
            t.memBytes = Bytes(1000 * (1 + rng.uniform(500)));
        }
    }
    return work;
}

TEST(Determinism, ChipSimAcrossThreads)
{
    for (std::uint64_t seed : {7ull, 1234ull}) {
        const auto work = randomWorkload(seed, 64, 12);
        std::string base;
        for (unsigned threads : kThreadCounts) {
            runtime::ScopedThreadPoolSize pool(threads);
            const std::string now =
                fingerprint(soc::runChipSim(work, 2e12));
            if (base.empty())
                base = now;
            else
                EXPECT_EQ(now, base)
                    << "seed " << seed << " threads " << threads;
        }
    }
}

TEST(Determinism, ChipSimUnderFaultsAcrossThreads)
{
    const auto work = randomWorkload(99, 48, 8);
    resilience::FaultSpec spec;
    spec.seed = 11;
    spec.cores = 48;
    spec.horizonSec = 0.01;
    spec.stragglerFraction = 0.25;
    spec.stragglerSlowdown = 1.5;
    spec.coreTransientPerSec = 200.0;
    spec.coreRepairSec = 1e-4;
    spec.corePermanentPerSec = 50.0;
    const auto plan = resilience::ChipFaultPlan::fromSchedule(
        resilience::FaultSchedule::generate(spec), 48);
    std::string base;
    unsigned base_failures = 0;
    for (unsigned threads : kThreadCounts) {
        runtime::ScopedThreadPoolSize pool(threads);
        const auto r = soc::runChipSim(work, 2e12, plan);
        if (base.empty()) {
            base = fingerprint(r);
            base_failures = r.coreFailures;
        } else {
            EXPECT_EQ(fingerprint(r), base) << "threads " << threads;
        }
    }
    EXPECT_GT(base_failures, 0u); // the fault plan actually bites
}

/**
 * One seeded random chip workload under a random fault plan, keyed by
 * @p seed. The case kind cycles with the seed so every corner of the
 * degraded event loop is reached: empty queues and zero, compute-only
 * and memory-only tasks in every kind; stragglers; dense transient and
 * permanent faults, some striking several cores at the same instant
 * or within the loop's 1e-15 s time floor of each other; permanent
 * faults that land after a core's queue drained; and chips on which
 * every core dies.
 */
std::string
chipFuzzRow(std::uint64_t seed)
{
    using resilience::FaultEvent;
    using resilience::FaultKind;
    Rng rng(seed);
    const unsigned cores = 1 + unsigned(rng.uniform(24));
    std::vector<std::vector<soc::CoreTask>> work(cores);
    for (auto &queue : work) {
        queue.resize(rng.uniform(7));
        for (soc::CoreTask &t : queue) {
            const unsigned shape = unsigned(rng.uniform(6));
            if (shape != 0 && shape != 1)
                t.computeSeconds = 1e-4 * (1.0 + rng.uniformReal() * 9.0);
            if (shape != 0 && shape != 2)
                t.memBytes = Bytes(1 + rng.uniform(4u << 20));
        }
    }
    const double bw = 1e9 * double(1 + rng.uniform(100));
    const soc::ChipSimResult clean = soc::runChipSim(work, bw);
    const double horizon = std::max(clean.makespan, 1e-6);

    enum Kind { FaultFree, Stragglers, Transients, Dense, Late, AllDead };
    const char *const names[] = {"fault-free", "stragglers", "transients",
                                 "dense", "late", "all-dead"};
    const Kind kind = Kind(seed % 6);
    resilience::ChipFaultPlan plan;
    if (kind != FaultFree) {
        plan.stragglerFactor.assign(cores, 1.0);
        plan.coreEvents.resize(cores);
    }
    // A time in [lo, hi); Dense snaps to an eighth-of-horizon grid so
    // several cores fault at exactly the same instant.
    auto at = [&](double lo, double hi) {
        const double t = lo + rng.uniformReal() * (hi - lo);
        return kind == Dense ? horizon * std::floor(t / horizon * 8) / 8
                             : t;
    };
    // Half the Dense kills land just past a grid point, closer together
    // than the time floor, so one step makes several of them due at
    // once; the rest share the grid instant with transients.
    auto kill_at = [&](double lo, double hi) {
        const double t = at(lo, hi);
        return kind == Dense && rng.chance(0.5)
                   ? t + rng.uniformReal() * 1e-15
                   : t;
    };
    for (unsigned c = 0; c < cores && kind != FaultFree; ++c) {
        if (rng.chance(0.3)) // factors below 1 clamp to 1
            plan.stragglerFactor[c] = 0.5 + rng.uniformReal() * 2.5;
        auto &events = plan.coreEvents[c];
        const bool dies = kind == AllDead ||
                          ((kind == Dense || kind == Late) &&
                           rng.chance(0.4));
        if (dies) {
            // Late kills strike after the core's fault-free finish.
            // Pushed first, a kill precedes transients at its instant.
            const double lo = kind == Late ? clean.coreFinish[c] : 0.0;
            const double hi = kind == Late ? 1.5 * horizon
                                           : 0.8 * horizon;
            events.push_back(
                {FaultKind::CorePermanent, kill_at(lo, hi), c, 0.0, 1.0});
        }
        const unsigned transients =
            kind == Stragglers ? 0 : unsigned(rng.uniform(5));
        for (unsigned e = 0; e < transients; ++e)
            events.push_back({FaultKind::CoreTransient,
                              at(0, 1.2 * horizon), c,
                              rng.uniformReal() * horizon / 10, 1.0});
        std::stable_sort(events.begin(), events.end(),
                         [](const FaultEvent &a, const FaultEvent &b) {
                             return a.timeSec < b.timeSec;
                         });
    }
    return "seed=" + std::to_string(seed) + " " + names[kind] +
           " cores=" + std::to_string(cores) + " " +
           fingerprint(soc::runChipSim(work, bw, plan));
}

/**
 * One seeded class-structured chip workload, keyed by @p seed. Cores
 * draw their task queue from a few shared classes, so many cores hold
 * bit-identical fluid state at once and the event loop advances them
 * as one cohort. The faults split and merge cohorts: a straggler
 * factor and grid-aligned transients hit some members of a class, and
 * Dense kills at shared grid instants hand orphans from one class to
 * idle cores of another. Some tasks are zero.
 */
std::string
chipCohortRow(std::uint64_t seed)
{
    using resilience::FaultEvent;
    using resilience::FaultKind;
    Rng rng(seed);
    const unsigned cores = 8 + unsigned(rng.uniform(57));
    const unsigned classes = 1 + unsigned(rng.uniform(4));
    std::vector<std::vector<soc::CoreTask>> queues(classes);
    for (auto &queue : queues) {
        queue.resize(rng.uniform(9));
        for (soc::CoreTask &t : queue) {
            const unsigned shape = unsigned(rng.uniform(6));
            if (shape != 0 && shape != 1)
                t.computeSeconds = 1e-4 * (1.0 + rng.uniformReal() * 9.0);
            if (shape != 0 && shape != 2)
                t.memBytes = Bytes(1 + rng.uniform(4u << 20));
        }
    }
    std::vector<std::vector<soc::CoreTask>> work(cores);
    for (auto &queue : work)
        queue = queues[rng.uniform(classes)];
    const double bw = 1e9 * double(1 + rng.uniform(100));
    const double horizon =
        std::max(soc::runChipSim(work, bw).makespan, 1e-6);

    enum Kind { FaultFree, Stragglers, Transients, Dense };
    const char *const names[] = {"cohort-fault-free", "cohort-stragglers",
                                 "cohort-transients", "cohort-dense"};
    const Kind kind = Kind(seed % 4);
    resilience::ChipFaultPlan plan;
    if (kind != FaultFree) {
        plan.stragglerFactor.assign(cores, 1.0);
        plan.coreEvents.resize(cores);
    }
    // Grid instants and repair windows shared across cores, so the
    // members a fault hits re-group with each other.
    auto grid = [&](double hi) {
        return horizon * double(rng.uniform(unsigned(hi * 8))) / 8;
    };
    const double factor = 1.0 + rng.uniformReal() * 2.0;
    for (unsigned c = 0; c < cores && kind != FaultFree; ++c) {
        if (rng.chance(0.3))
            plan.stragglerFactor[c] = factor;
        auto &events = plan.coreEvents[c];
        if (kind == Dense && rng.chance(0.3))
            events.push_back(
                {FaultKind::CorePermanent, grid(0.8), c, 0.0, 1.0});
        const unsigned transients =
            kind == Stragglers ? 0 : unsigned(rng.uniform(3));
        for (unsigned e = 0; e < transients; ++e)
            events.push_back({FaultKind::CoreTransient, grid(1.2), c,
                              horizon / double(16 << rng.uniform(2)),
                              1.0});
        std::stable_sort(events.begin(), events.end(),
                         [](const FaultEvent &a, const FaultEvent &b) {
                             return a.timeSec < b.timeSec;
                         });
    }
    return "seed=" + std::to_string(seed) + " " + names[kind] +
           " classes=" + std::to_string(classes) +
           " cores=" + std::to_string(cores) + " " +
           fingerprint(soc::runChipSim(work, bw, plan));
}

/** FNV-1a of @p s: a one-token stand-in for a long fingerprint. */
std::string
fnv(const std::string &s)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(s.data(), s.size())));
    return buf;
}

/**
 * The chip-fanout workload's class structure (perf/workloads.cc) at
 * full size, keyed by @p seed: 4,096 cores x 32 tasks, each core
 * drawing one of five compute phases and one of eleven traffic
 * classes, so about 55 cohorts share the active set and long runs of
 * cores drain the same bytes per instant while the shared total
 * crosses many binades. With
 * @p faulty, a seeded fault schedule adds transients, kills and
 * stragglers at a few percent of the cores. The per-core finish times
 * are hashed to keep the row short.
 */
std::string
chipFanoutRow(std::uint64_t seed, bool faulty)
{
    constexpr unsigned cores = 4096, tasks = 32;
    constexpr double bw = 4e12;
    Rng rng(seed);
    std::vector<std::vector<soc::CoreTask>> work(cores);
    Bytes total = 0;
    for (auto &queue : work) {
        const std::uint64_t phase = rng.uniform(5);
        const std::uint64_t traffic = rng.uniform(11);
        queue.resize(tasks);
        for (unsigned k = 0; k < tasks; ++k) {
            queue[k].computeSeconds = 1e-4 * double(1 + (phase + 3 * k) % 5);
            queue[k].memBytes = Bytes(traffic + k + 1) * kMiB;
            total += queue[k].memBytes;
        }
    }
    resilience::ChipFaultPlan plan;
    if (faulty) {
        resilience::FaultSpec spec;
        spec.seed = seed;
        spec.cores = cores;
        spec.horizonSec = double(total) / bw;
        spec.coreTransientPerSec = 0.01 / spec.horizonSec;
        spec.corePermanentPerSec = 0.003 / spec.horizonSec;
        spec.coreRepairSec = 5e-4;
        spec.stragglerFraction = 0.01;
        spec.stragglerSlowdown = 1.5;
        plan = resilience::ChipFaultPlan::fromSchedule(
            resilience::FaultSchedule::generate(spec), cores);
    }
    const soc::ChipSimResult r = soc::runChipSim(work, bw, plan);
    return "seed=" + std::to_string(seed) +
           (faulty ? " fanout-faults" : " fanout-fault-free") +
           " cores=" + std::to_string(cores) +
           " tasks=" + std::to_string(tasks) +
           " makespan=" + fp(r.makespan) +
           " memutil=" + fp(r.avgMemUtilization) +
           " failures=" + std::to_string(r.coreFailures) +
           " redispatched=" + std::to_string(r.reDispatchedTasks) +
           " completed=" + std::to_string(r.completed) +
           " fnv=" + fnv(fingerprint(r));
}

/**
 * 64 cores whose tasks all differ, keyed by @p seed: every core is its
 * own cohort, so the shared byte total takes short runs of equal adds
 * between cores that drain their last bytes.
 */
std::string
chipDistinctRow(std::uint64_t seed)
{
    constexpr unsigned cores = 64;
    Rng rng(seed);
    std::vector<std::vector<soc::CoreTask>> work(cores);
    for (auto &queue : work) {
        queue.resize(1 + rng.uniform(12));
        for (soc::CoreTask &t : queue) {
            t.computeSeconds = 1e-4 * (1.0 + rng.uniformReal() * 9.0);
            t.memBytes = Bytes(1 + rng.uniform(8u << 20));
        }
    }
    const double bw = 1e9 * double(1 + rng.uniform(100));
    return "seed=" + std::to_string(seed) + " distinct cores=" +
           std::to_string(cores) + " " +
           fingerprint(soc::runChipSim(work, bw));
}

/**
 * The fuzz rows are frozen in tests/golden/chip_sim_fuzz.txt: every
 * rewrite of the chip-sim event loop must reproduce them bit for bit.
 * Regenerate after an intentional model change with
 *     ASCEND_UPDATE_GOLDEN=1 ./build/tests/test_determinism
 * and review the diff like any other code change.
 */
TEST(Determinism, ChipSimFuzzMatchesGolden)
{
    const std::string path =
        std::string(ASCEND_GOLDEN_DIR) + "/chip_sim_fuzz.txt";
    std::string rows =
        "# runChipSim fingerprints of seeded random workloads and fault\n"
        "# plans (tests/test_determinism.cc chipFuzzRow, then\n"
        "# chipCohortRow from seed 37, chipFanoutRow from seed 61 and\n"
        "# chipDistinctRow at seed 63).\n"
        "# Regenerate: ASCEND_UPDATE_GOLDEN=1 "
        "./build/tests/test_determinism\n";
    for (std::uint64_t seed = 1; seed <= 36; ++seed)
        rows += chipFuzzRow(seed) + "\n";
    for (std::uint64_t seed = 37; seed <= 60; ++seed)
        rows += chipCohortRow(seed) + "\n";
    rows += chipFanoutRow(61, false) + "\n";
    rows += chipFanoutRow(62, true) + "\n";
    rows += chipDistinctRow(63) + "\n";
    expectGolden(path, rows);
}

TEST(Determinism, CoreSimSessionAcrossThreads)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Tiny);
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    std::string base;
    for (unsigned threads : kThreadCounts) {
        runtime::ScopedThreadPoolSize pool(threads);
        // Fresh private cache: every pass re-simulates all layers.
        runtime::SimSession session(
            cfg, {}, std::make_shared<runtime::SimCache>());
        const std::string now =
            fingerprint(session.inferenceResult(net));
        if (base.empty())
            base = now;
        else
            EXPECT_EQ(now, base) << "threads " << threads;
    }
}

} // anonymous namespace
} // namespace ascend
