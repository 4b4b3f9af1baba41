/**
 * @file
 * Tests for the fluid multi-core chip simulator, the latency
 * histogram, the extended zoo additions (Siamese / PointNet), and a
 * randomized program fuzz test closing the verifier/simulator loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/core_sim.hh"
#include "graph/zoo_graphs.hh"
#include "isa/verify.hh"
#include "noc/mesh.hh"
#include "obs/tracer.hh"
#include "resilience/fault_schedule.hh"
#include "runtime/sim_session.hh"
#include "soc/chip_sim.hh"

namespace ascend {
namespace {

// ------------------------------------------------------- chip sim

TEST(ChipSim, PureComputeIsUncontended)
{
    std::vector<std::vector<soc::CoreTask>> cores(4);
    for (auto &c : cores)
        c.push_back({0.010, 0});
    const auto r = soc::runChipSim(cores, 1e9);
    EXPECT_NEAR(r.makespan, 0.010, 1e-9);
}

TEST(ChipSim, MemoryBoundTasksShareCapacity)
{
    // Four cores each need 1 GB over a 1 GB/s system: 4 s total.
    std::vector<std::vector<soc::CoreTask>> cores(4);
    for (auto &c : cores)
        c.push_back({0.0, Bytes(1e9)});
    const auto r = soc::runChipSim(cores, 1e9);
    EXPECT_NEAR(r.makespan, 4.0, 1e-6);
    EXPECT_NEAR(r.avgMemUtilization, 1.0, 1e-6);
}

TEST(ChipSim, ComputeHidesMemoryWhenItDominates)
{
    std::vector<std::vector<soc::CoreTask>> cores(2);
    cores[0].push_back({1.0, Bytes(1e6)}); // compute-bound
    cores[1].push_back({1.0, Bytes(1e6)});
    const auto r = soc::runChipSim(cores, 1e9);
    EXPECT_NEAR(r.makespan, 1.0, 1e-3);
}

TEST(ChipSim, StragglerStretchesMakespan)
{
    std::vector<std::vector<soc::CoreTask>> even(4), skewed(4);
    for (auto &c : even)
        c.push_back({0.010, 0});
    for (std::size_t i = 0; i < 4; ++i)
        skewed[i].push_back({i == 0 ? 0.025 : 0.005, 0});
    // Same total work; the skewed split is slower end-to-end.
    EXPECT_GT(soc::runChipSim(skewed, 1e9).makespan,
              soc::runChipSim(even, 1e9).makespan);
}

TEST(ChipSim, SequentialTasksAccumulate)
{
    std::vector<std::vector<soc::CoreTask>> cores(1);
    cores[0] = {{0.001, 0}, {0.002, 0}, {0.0, Bytes(3e6)}};
    const auto r = soc::runChipSim(cores, 1e9);
    EXPECT_NEAR(r.makespan, 0.006, 1e-6);
}

TEST(ChipSim, ContentionVsRooflineGap)
{
    // 8 cores alternate compute-heavy and memory-heavy tasks out of
    // phase; the fluid sim must land between the two naive bounds.
    std::vector<std::vector<soc::CoreTask>> cores(8);
    double total_compute = 0;
    Bytes total_bytes = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        for (int t = 0; t < 4; ++t) {
            const bool heavy = (i + t) % 2 == 0;
            soc::CoreTask task{heavy ? 0.004 : 0.001,
                               Bytes(heavy ? 1e6 : 8e6)};
            cores[i].push_back(task);
            total_compute += task.computeSeconds;
            total_bytes += task.memBytes;
        }
    }
    const double cap = 2e9;
    const auto r = soc::runChipSim(cores, cap);
    const double lower =
        std::max(total_compute / 8, double(total_bytes) / cap);
    const double upper = total_compute + double(total_bytes) / cap;
    EXPECT_GE(r.makespan, lower - 1e-9);
    EXPECT_LE(r.makespan, upper);
}

TEST(ChipSim, BadCapacityRaisesConfigValidation)
{
    const std::vector<std::vector<soc::CoreTask>> cores(2);
    for (const double cap : {std::nan(""), HUGE_VAL, 0.0, -1e9}) {
        try {
            soc::runChipSim(cores, cap);
            FAIL() << "capacity " << cap << " accepted";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::ConfigValidation) << cap;
            EXPECT_NE(e.context().find("capacity"), std::string::npos);
        }
    }
}

TEST(ChipSim, GuardLimitRaisesStructuredError)
{
    // 16 tasks need at least 16 events; a guard of 3 must trip with
    // a recoverable Error carrying progress context, not a panic.
    std::vector<std::vector<soc::CoreTask>> cores(1);
    for (int t = 0; t < 16; ++t)
        cores[0].push_back({0.001, Bytes(1e6)});
    soc::ChipSimOptions options;
    options.guardLimit = 3;
    try {
        soc::runChipSim(cores, 1e9, options);
        FAIL() << "guard did not trip";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::GuardExceeded);
        EXPECT_NE(e.context().find("events"), std::string::npos);
        EXPECT_NE(e.context().find("tasks"), std::string::npos);
    }
}

TEST(ChipSim, GuardLimitRaisesStructuredErrorUnderFaults)
{
    std::vector<std::vector<soc::CoreTask>> cores(2);
    for (int t = 0; t < 16; ++t) {
        cores[0].push_back({0.001, Bytes(1e6)});
        cores[1].push_back({0.002, Bytes(2e6)});
    }
    resilience::ChipFaultPlan plan;
    plan.stragglerFactor = {1.5, 1.0};
    soc::ChipSimOptions options;
    options.guardLimit = 3;
    try {
        soc::runChipSim(cores, 1e9, plan, options);
        FAIL() << "guard did not trip";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::GuardExceeded);
    }
}

TEST(ChipSim, GuardErrorCountsCompletionsNotOrphans)
{
    // Core 1 dies at t=0, so its 16 tasks become orphans that core 0
    // runs after its own. Every event completes one task on core 0;
    // the guard trips on the 4th event, after 4 of the 32 tasks.
    std::vector<std::vector<soc::CoreTask>> cores(2);
    for (auto &queue : cores)
        queue.assign(16, {0.001, 0});
    resilience::ChipFaultPlan plan;
    plan.coreEvents.resize(2);
    plan.coreEvents[1].push_back(
        {resilience::FaultKind::CorePermanent, 0.0, 1, 0.0, 1.0});
    soc::ChipSimOptions options;
    options.guardLimit = 3;
    try {
        soc::runChipSim(cores, 1e9, plan, options);
        FAIL() << "guard did not trip";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::GuardExceeded);
        EXPECT_NE(e.context().find("4/32 tasks done"), std::string::npos)
            << e.context();
    }
}

/** Every field of @p r, doubles in hex, so one ULP shows. */
std::string
fingerprint(const soc::ChipSimResult &r)
{
    std::string s;
    char buf[64];
    for (double v : {r.makespan, r.avgMemUtilization}) {
        std::snprintf(buf, sizeof(buf), "%a ", v);
        s += buf;
    }
    std::snprintf(buf, sizeof(buf), "%u %u %d", r.coreFailures,
                  r.reDispatchedTasks, int(r.completed));
    s += buf;
    for (double f : r.coreFinish) {
        std::snprintf(buf, sizeof(buf), " %a", f);
        s += buf;
    }
    return s;
}

/** One Chip-domain span parsed back out of the trace JSON. */
struct ChipSpan
{
    std::uint32_t core = 0; ///< 0-based (the track is core + 1)
    std::uint64_t start = 0;
    std::uint64_t end = 0;
};

std::vector<ChipSpan>
chipTaskSpans(const std::string &json)
{
    std::vector<ChipSpan> spans;
    const std::string key = "{\"name\":\"task\",\"ph\":\"X\",\"pid\":2,";
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
        unsigned long long tid = 0, ts = 0, dur = 0;
        EXPECT_EQ(std::sscanf(json.c_str() + at + key.size(),
                              "\"tid\":%llu,\"ts\":%llu,\"dur\":%llu",
                              &tid, &ts, &dur),
                  3);
        spans.push_back({std::uint32_t(tid - 1), ts, ts + dur});
    }
    return spans;
}

TEST(ChipSim, TracedRunEqualsUntracedRun)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    // Three task classes over 48 cores, so cores run in cohorts; a
    // straggler factor, shared-instant transients and two early kills
    // split the classes and move orphans between them.
    const unsigned n = 48;
    std::vector<std::vector<soc::CoreTask>> work(n);
    std::size_t tasks = 0;
    for (unsigned c = 0; c < n; ++c) {
        const unsigned cls = c % 3;
        for (unsigned k = 0; k < 6 + cls; ++k)
            work[c].push_back({1e-4 * double(1 + (cls + k) % 4),
                               Bytes(1 + cls + k % 3) << 18});
        tasks += work[c].size();
    }
    resilience::ChipFaultPlan plan;
    plan.stragglerFactor.assign(n, 1.0);
    plan.coreEvents.resize(n);
    for (unsigned c = 0; c < n; c += 5)
        plan.stragglerFactor[c] = 1.75;
    for (unsigned c = 1; c < n; c += 4)
        plan.coreEvents[c].push_back(
            {resilience::FaultKind::CoreTransient, 3e-4, c, 2e-4, 1.0});
    for (unsigned c : {7u, 20u})
        plan.coreEvents[c].insert(
            plan.coreEvents[c].begin(),
            {resilience::FaultKind::CorePermanent, 1e-4, c, 0.0, 1.0});

    obs::Tracer &tracer = obs::Tracer::instance();
    const bool was_tracing = obs::Tracer::enabled();
    const std::string was_path = tracer.path();
    tracer.stop();
    const std::string untraced =
        fingerprint(soc::runChipSim(work, 40e9, plan));
    tracer.start("");
    const soc::ChipSimResult r = soc::runChipSim(work, 40e9, plan);
    const std::vector<ChipSpan> spans = chipTaskSpans(tracer.json());
    tracer.stop();
    if (was_tracing)
        tracer.start(was_path);

    EXPECT_EQ(fingerprint(r), untraced);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.reDispatchedTasks, 0u);
    EXPECT_EQ(spans.size(), tasks); // no zero tasks: one span each
    std::vector<std::uint64_t> last_end(n, 0);
    std::vector<bool> seen(n, false);
    for (const ChipSpan &s : spans) { // sorted by (core, start)
        ASSERT_LT(s.core, n);
        EXPECT_GE(s.start, last_end[s.core]) << "core " << s.core;
        last_end[s.core] = s.end;
        seen[s.core] = true;
    }
    for (unsigned c = 0; c < n; ++c) {
        const std::uint64_t finish = obs::traceNs(r.coreFinish[c]);
        if (c == 7 || c == 20) // killed: the lost task has no span
            EXPECT_LE(last_end[c], finish) << "core " << c;
        else
            EXPECT_TRUE(seen[c] && last_end[c] == finish) << "core " << c;
    }
}

// The serial-vs-parallel bit-identity checks moved to
// test_determinism.cc, which sweeps thread counts x grains
// in one seeded fuzz loop.

TEST(ChipSim, ActiveSetSkipsLongFinishedCores)
{
    // One long-running core next to many short-lived ones: correct
    // accounting requires finished cores to stop influencing the
    // shared-memory share.
    std::vector<std::vector<soc::CoreTask>> work(9);
    work[0].push_back({0.0, Bytes(8e9)}); // long memory drain
    for (std::size_t c = 1; c < 9; ++c)
        work[c].push_back({0.0, Bytes(1e9)});
    // 1 GB/s shared: 9-way split until the short cores finish (at
    // t=9), then the long core drains alone. Total = 9 + 7 = 16 s.
    const auto r = soc::runChipSim(work, 1e9);
    EXPECT_NEAR(r.makespan, 16.0, 1e-6);
    EXPECT_NEAR(r.coreFinish[1], 9.0, 1e-6);
}

// ------------------------------------------------------ histogram

TEST(Histogram, PercentilesOnUniformSamples)
{
    stats::Histogram h(100.0);
    for (int i = 0; i < 100; ++i)
        h.sample(double(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 2.0);
    EXPECT_LT(h.percentile(0.01), 5.0);
}

TEST(Histogram, OverflowLandsAtMax)
{
    stats::Histogram h(10.0);
    h.sample(1e9);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);
}

TEST(Histogram, ResetClears)
{
    stats::Histogram h(10.0);
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(MeshPercentiles, TailExceedsMedianUnderLoad)
{
    noc::MeshConfig cfg;
    noc::MeshNoc mesh(cfg);
    noc::UniformTraffic t(0.4, mesh.nodes());
    mesh.run(t, 10000);
    const double p50 = mesh.latencyPercentile(0, 0.5);
    const double p99 = mesh.latencyPercentile(0, 0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_GT(p99, p50);
}

// --------------------------------------------- zoo additions

TEST(ZooMore, SiameseHasTwoBranchesAndXcorr)
{
    const auto net = graph::zoo::siameseTracker(1);
    bool has_template = false, has_search = false, has_xcorr = false;
    for (const auto &l : net.layers) {
        if (l.name.find("template.") == 0)
            has_template = true;
        if (l.name.find("search.") == 0)
            has_search = true;
        if (l.name == "xcorr")
            has_xcorr = true;
    }
    EXPECT_TRUE(has_template);
    EXPECT_TRUE(has_search);
    EXPECT_TRUE(has_xcorr);
}

TEST(ZooMore, PointNetRowsScaleWithPoints)
{
    const auto small = graph::zoo::pointNet(1, 512);
    const auto big = graph::zoo::pointNet(1, 2048);
    EXPECT_NEAR(double(big.totalFlops()),
                4.0 * double(small.totalFlops()),
                0.3 * double(big.totalFlops()));
}

TEST(ZooMore, BothRunOnTheStdCore)
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));
    for (const auto &net :
         {graph::zoo::siameseTracker(1), graph::zoo::pointNet(1)}) {
        const auto runs = session.runInference(net);
        EXPECT_EQ(runs.size(), net.size()) << net.name;
    }
}

// ------------------------------------------------------ fuzzing

/**
 * Generate random deadlock-free programs and confirm the simulator
 * completes them with consistent busy-cycle accounting.
 *
 * Deadlock freedom by construction: flag f is produced only by pipe
 * f % 5 and consumed only by strictly higher-numbered pipes, so the
 * wait graph is a DAG over pipes (the lowest-numbered pipe never
 * waits, hence always progresses). Arbitrary balanced set/wait
 * placement can deadlock through cross-pipe cycles the in-order
 * queues cannot untangle - which the verifier documents as beyond
 * its conservative checks.
 */
TEST(Fuzz, VerifiedRandomProgramsAlwaysRun)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    core::CoreSim sim(cfg);
    Rng rng(1234);
    for (int trial = 0; trial < 40; ++trial) {
        isa::Program p("fuzz");
        Cycles exec_total = 0;
        int pending[8] = {};
        auto producer = [](std::uint8_t f) { return unsigned(f % 5); };
        for (int i = 0; i < 200; ++i) {
            switch (rng.uniform(4)) {
              case 0:
              case 1: {
                const auto pipe = static_cast<isa::Pipe>(rng.uniform(6));
                const Cycles c = 1 + rng.uniform(50);
                p.exec(pipe, c);
                exec_total += c;
                break;
              }
              case 2: {
                const auto f = std::uint8_t(rng.uniform(8));
                p.setFlag(static_cast<isa::Pipe>(producer(f)), f);
                ++pending[f];
                break;
              }
              default: {
                const auto f = std::uint8_t(rng.uniform(8));
                if (pending[f] > 0) {
                    const unsigned lo = producer(f) + 1;
                    const auto pipe = static_cast<isa::Pipe>(
                        lo + rng.uniform(6 - lo));
                    p.waitFlag(pipe, f);
                    --pending[f];
                }
                break;
              }
            }
        }
        ASSERT_TRUE(isa::isWellFormed(p)) << "trial " << trial;
        const auto r = sim.run(p); // must not deadlock (panics if so)
        Cycles busy = 0;
        for (std::size_t pp = 0; pp < isa::kNumPipes; ++pp)
            busy += r.pipes[pp].busyCycles;
        EXPECT_EQ(busy, exec_total) << "trial " << trial;
        EXPECT_GE(r.totalCycles, busy / isa::kNumPipes);
    }
}

/**
 * Conversely: programs the verifier rejects for missing sets really
 * do deadlock in the simulator.
 */
TEST(FuzzDeath, UnderflowedProgramDeadlocks)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    core::CoreSim sim(cfg);
    isa::Program p("bad");
    p.setFlag(isa::Pipe::Mte1, 0);
    p.waitFlag(isa::Pipe::Cube, 0);
    p.waitFlag(isa::Pipe::Cube, 0); // one token short
    p.exec(isa::Pipe::Cube, 5);
    EXPECT_FALSE(isa::isWellFormed(p));
    EXPECT_DEATH(sim.run(p), "deadlocked");
}

} // anonymous namespace
} // namespace ascend
