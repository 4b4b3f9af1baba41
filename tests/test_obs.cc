/**
 * @file
 * Tests for the obs layer: tracer determinism and dedup, Chrome JSON
 * shape, the per-pipe stall/occupancy counters on SimResult, and the
 * runtime counter registry (charging, merging, reporting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/codec.hh"
#include "common/error.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"

#include "scoped_trace.hh"

namespace ascend {
namespace {

TEST(Tracer, DisabledByDefault)
{
    obs::Tracer::instance().stop();
    EXPECT_EQ(obs::Tracer::current(), nullptr);
    EXPECT_FALSE(obs::Tracer::enabled());
    // stop() when never started must be harmless.
    obs::Tracer::instance().stop();
}

TEST(Tracer, IdenticalSpansDeduplicate)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    ScopedTrace scope;
    obs::Tracer &tracer = obs::Tracer::instance();
    for (int i = 0; i < 5; ++i)
        tracer.span(obs::Domain::Core, 2, "cube.gemm", 100, 50, 4096);
    EXPECT_EQ(tracer.spanCount(), 1u);
    // A span differing in any field is a distinct event.
    tracer.span(obs::Domain::Core, 2, "cube.gemm", 100, 50, 8192);
    EXPECT_EQ(tracer.spanCount(), 2u);
}

TEST(Tracer, CrossThreadRecordingMergesDeterministically)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    ScopedTrace scope;
    obs::Tracer &tracer = obs::Tracer::instance();
    auto record = [&tracer](unsigned salt) {
        for (unsigned i = 0; i < 100; ++i)
            tracer.span(obs::Domain::Chip, 1 + (i + salt) % 4, "task",
                        i * 10, 10, i);
    };
    std::thread a(record, 0), b(record, 1);
    record(2);
    a.join();
    b.join();
    const std::string json = tracer.json();
    tracer.clear();
    // Same events recorded on one thread, in a different order.
    for (unsigned salt : {2u, 1u, 0u})
        record(salt);
    EXPECT_EQ(tracer.json(), json);
}

TEST(Tracer, JsonHasChromeTraceShape)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    ScopedTrace scope;
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.span(obs::Domain::Core, 2, "cube.gemm", 0, 10, 64);
    tracer.counter(obs::Domain::Llc, "llc hit rate", 4096, 0.5);
    const std::string json = tracer.json();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("core pipes (cycles)"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cube.gemm\""), std::string::npos);
    EXPECT_NE(json.find("\"bytes\":64"), std::string::npos);
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(Tracer, ClearDropsEventsButStaysActive)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    ScopedTrace scope;
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.span(obs::Domain::Noc, 1, "mesh-run", 0, 100);
    EXPECT_EQ(tracer.spanCount(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.spanCount(), 0u);
    EXPECT_TRUE(obs::Tracer::enabled());
}

TEST(Tracer, CoreSimEmitsSpansAndRepeatRunsDedup)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    ScopedTrace scope;
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Tiny);
    runtime::SimSession session(cfg, {},
                                std::make_shared<runtime::SimCache>());
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    session.runInference(net);
    const std::size_t once = obs::Tracer::instance().spanCount();
    EXPECT_GT(once, 0u);
    const std::string json_once = obs::Tracer::instance().json();
    // Re-running identical work must not grow the deduplicated trace.
    runtime::SimSession fresh(cfg, {},
                              std::make_shared<runtime::SimCache>());
    fresh.runInference(net);
    EXPECT_EQ(obs::Tracer::instance().spanCount(), once);
    EXPECT_EQ(obs::Tracer::instance().json(), json_once);
}

TEST(Tracer, TraceBytesIdenticalAcrossThreadCounts)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Tiny);
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    std::string base;
    for (unsigned threads : {1u, 4u}) {
        runtime::ScopedThreadPoolSize pool(threads);
        ScopedTrace scope;
        runtime::SimSession session(
            cfg, {}, std::make_shared<runtime::SimCache>());
        session.runInference(net);
        const std::string json = obs::Tracer::instance().json();
        if (base.empty())
            base = json;
        else
            EXPECT_EQ(json, base) << "trace drifted at " << threads
                                  << " threads";
        EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    }
}

TEST(SimResult, StallAndOccupancyCountersAreConsistent)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    runtime::SimSession session(cfg, {},
                                std::make_shared<runtime::SimCache>());
    const auto result =
        session.runLayer(model::Layer::linear("fc", 64, 256, 256));
    std::uint64_t waits = 0;
    for (unsigned p = 0; p < isa::kNumPipes; ++p) {
        const auto pipe = static_cast<isa::Pipe>(p);
        const core::PipeStats &s = result.pipe(pipe);
        EXPECT_LE(s.busyCycles, s.finishCycle);
        EXPECT_LE(s.finishCycle, result.totalCycles);
        const double occ = result.occupancy(pipe);
        EXPECT_GE(occ, 0.0);
        EXPECT_LE(occ, 1.0);
        waits += s.waitCycles;
    }
    // A pipelined GEMM must stall somewhere (flags gate every queue).
    EXPECT_GT(waits, 0u);
}

TEST(SimResult, BarrierAndWaitStallsAreCounted)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    core::CoreSim sim(cfg);
    isa::Program prog("stalls");
    prog.exec(isa::Pipe::Vector, 100);
    prog.barrier("sync");
    prog.exec(isa::Pipe::Vector, 10, 0, {}, "producer-late");
    prog.setFlag(isa::Pipe::Vector, 0);
    // Cube is ready at the barrier but must wait for the flag set at
    // cycle ~110: a pure WAIT_FLAG stall.
    prog.waitFlag(isa::Pipe::Cube, 0);
    prog.exec(isa::Pipe::Cube, 5);
    const auto r = sim.run(prog);
    EXPECT_EQ(r.barriers, 1u);
    EXPECT_GT(r.pipe(isa::Pipe::Cube).waitCycles, 0u);
    EXPECT_EQ(r.pipe(isa::Pipe::Vector).waitCycles, 0u);
}

TEST(PerfStats, PipeTotalsChargeOnMissAndHit)
{
    runtime::resetCounters();
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    runtime::SimSession session(cfg, {},
                                std::make_shared<runtime::SimCache>());
    const auto layer = model::Layer::linear("fc", 32, 128, 128);
    const auto r1 = session.runLayer(layer); // miss
    const auto r2 = session.runLayer(layer); // memo hit
    EXPECT_EQ(r1.totalCycles, r2.totalCycles);
    // The counters describe the workload, so the hit charges too.
    EXPECT_EQ(runtime::counterValue("sim results"), 2u);
    const std::uint64_t cycles = runtime::counterValue("sim cycles");
    EXPECT_EQ(cycles, 2 * r1.totalCycles);
    EXPECT_EQ(runtime::counterValue("sim barriers"), 2 * r1.barriers);
    for (unsigned p = 0; p < isa::kNumPipes; ++p) {
        const auto pipe = static_cast<isa::Pipe>(p);
        const std::string name =
            std::string("pipe ") + isa::toString(pipe);
        const std::uint64_t busy = runtime::counterValue(name + " busy");
        EXPECT_EQ(busy, 2 * r1.pipe(pipe).busyCycles);
        EXPECT_EQ(runtime::counterValue(name + " wait"),
                  2 * r1.pipe(pipe).waitCycles);
        EXPECT_EQ(runtime::counterValue(name + " instrs"),
                  2 * r1.pipe(pipe).instrs);
        EXPECT_LE(busy, cycles); // utilization within [0, 1]
    }
    runtime::resetCounters();
    EXPECT_EQ(runtime::counterValue("sim results"), 0u);
}

// ------------------------------------------------ counter registry

using runtime::CounterKind;
using runtime::CounterUnit;
using runtime::Determinism;

TEST(CounterRegistry, ConcurrentSumsTotalExactly)
{
    runtime::Counter &c = runtime::counter(
        "test concurrent sum", CounterKind::Sum,
        Determinism::Deterministic);
    c.reset();
    runtime::ThreadPool pool(8);
    const std::size_t n = 20000;
    pool.parallelFor(n, [&](std::size_t i) { c.charge(i + 1); });
    EXPECT_EQ(c.value(), n * (n + 1) / 2);
    EXPECT_EQ(runtime::counterValue("test concurrent sum"),
              n * (n + 1) / 2);
}

TEST(CounterRegistry, ConcurrentMaxKeepsTheLargestValue)
{
    runtime::Counter &u = runtime::counter(
        "test concurrent max", CounterKind::Max,
        Determinism::Deterministic);
    runtime::Counter &err = runtime::counter(
        "test concurrent max err", CounterKind::Max, Determinism::Racy,
        CounterUnit::Fraction);
    u.reset();
    err.reset();
    runtime::ThreadPool pool(8);
    const std::size_t n = 20000;
    // Scrambled order, so the maximum arrives mid-stream.
    const auto value = [&](std::size_t i) { return (i * 7919) % n; };
    pool.parallelFor(n, [&](std::size_t i) {
        u.charge(value(i));
        err.charge(doubleBits(double(value(i)) * 1e-6));
    });
    EXPECT_EQ(u.value(), n - 1);
    EXPECT_EQ(bitsDouble(err.value()), double(n - 1) * 1e-6);
    // A smaller charge never lowers a max.
    u.charge(1);
    err.charge(doubleBits(0.5e-6));
    EXPECT_EQ(u.value(), n - 1);
    EXPECT_EQ(bitsDouble(err.value()), double(n - 1) * 1e-6);
}

TEST(CounterRegistry, ReRegisteringWithAnotherDeclarationThrows)
{
    runtime::Counter &c = runtime::counter(
        "test declared once", CounterKind::Sum,
        Determinism::Deterministic);
    EXPECT_EQ(&runtime::counter("test declared once", CounterKind::Sum,
                                Determinism::Deterministic),
              &c);
    const auto expectConflict = [](auto &&fn) {
        try {
            fn();
            FAIL() << "expected Error[counter-conflict]";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::CounterConflict);
            EXPECT_NE(std::string(e.what()).find("test declared once"),
                      std::string::npos);
        }
    };
    expectConflict([] {
        runtime::counter("test declared once", CounterKind::Max,
                         Determinism::Deterministic);
    });
    expectConflict([] {
        runtime::counter("test declared once", CounterKind::Sum,
                         Determinism::Racy);
    });
    expectConflict([] {
        runtime::counter("test declared once", CounterKind::Sum,
                         Determinism::Deterministic,
                         CounterUnit::Fraction);
    });
}

TEST(CounterRegistry, ResetZeroesEveryCounter)
{
    runtime::counter("test reset sum", CounterKind::Sum,
                     Determinism::Deterministic)
        .charge(5);
    runtime::counter("test reset max", CounterKind::Max,
                     Determinism::Racy)
        .charge(9);
    runtime::resetCounters();
    for (const runtime::CounterEntry &e : runtime::counterSnapshot())
        EXPECT_EQ(e.value, 0u) << e.name;
    EXPECT_EQ(runtime::counterValue("test reset sum"), 0u);
    EXPECT_EQ(runtime::counterValue("test reset max"), 0u);
}

TEST(CounterRegistry, SnapshotIsSortedByName)
{
    // Registered out of order.
    runtime::counter("test sort c", CounterKind::Sum,
                     Determinism::Deterministic)
        .charge(3);
    runtime::counter("test sort a", CounterKind::Max,
                     Determinism::Racy)
        .charge(1);
    runtime::counter("test sort b", CounterKind::Sum,
                     Determinism::Deterministic);
    const std::vector<runtime::CounterEntry> snap =
        runtime::counterSnapshot();
    EXPECT_TRUE(std::is_sorted(
        snap.begin(), snap.end(),
        [](const auto &x, const auto &y) { return x.name < y.name; }));
    const auto find = [&](const std::string &name) {
        return std::find_if(snap.begin(), snap.end(),
                            [&](const auto &e) { return e.name == name; });
    };
    ASSERT_NE(find("test sort a"), snap.end());
    EXPECT_EQ(find("test sort a")->kind, CounterKind::Max);
    EXPECT_EQ(find("test sort a")->determinism, Determinism::Racy);
    EXPECT_EQ(find("test sort a")->value, 1u);
    EXPECT_EQ(find("test sort c")->value, 3u);
    EXPECT_LT(find("test sort a"), find("test sort b"));
    EXPECT_LT(find("test sort b"), find("test sort c"));
}

TEST(CounterRegistry, UnregisteredNameReadsZero)
{
    EXPECT_EQ(runtime::counterValue("test never registered"), 0u);
    for (const runtime::CounterEntry &e : runtime::counterSnapshot())
        EXPECT_NE(e.name, "test never registered");
}

TEST(CounterRegistry, ReportHasOneRowPerCounterAndMarksVaryingRows)
{
    runtime::resetCounters();
    runtime::counter("test report det", CounterKind::Sum,
                     Determinism::Deterministic)
        .charge(42);
    runtime::counter("test report racy", CounterKind::Sum,
                     Determinism::Racy)
        .charge(7);
    runtime::counter("test report err", CounterKind::Max,
                     Determinism::Racy, CounterUnit::Fraction)
        .charge(doubleBits(0.0123));
    const std::string report =
        runtime::simStatsReport(runtime::SimCache::Stats{}, 4);
    const auto row = [&](const std::string &label) {
        const std::size_t at = report.find("  " + label + " ");
        EXPECT_NE(at, std::string::npos) << label << "\n" << report;
        if (at == std::string::npos)
            return std::string();
        return report.substr(at, report.find('\n', at) - at);
    };
    const std::string det = row("test report det");
    EXPECT_NE(det.find(" 42"), std::string::npos) << det;
    EXPECT_NE(det.back(), '~') << det;
    const std::string racy = row("test report racy");
    EXPECT_NE(racy.find(" 7  ~"), std::string::npos) << racy;
    EXPECT_NE(row("test report err").find(" 1.2%  ~"), std::string::npos);
    // Cache, thread and scope rows can vary with the thread count;
    // the warm-cache CI regexes still find their values.
    EXPECT_EQ(row("threads").back(), '~');
    EXPECT_NE(row("cache hit rate").find(" 0.0%  ~"), std::string::npos);
    EXPECT_EQ(row("disk loads").back(), '~');
    runtime::resetCounters();
}

} // anonymous namespace
} // namespace ascend
