/**
 * @file
 * Tests for the obs layer: tracer determinism and dedup, Chrome JSON
 * shape, the per-pipe stall/occupancy counters on SimResult, and the
 * runtime::pipeTotals charging.
 */

#include <gtest/gtest.h>

#include <thread>

#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"

namespace ascend {
namespace {

/** RAII: tracing on (in-memory) for the scope, clean after. */
class ScopedTrace
{
  public:
    ScopedTrace()
    {
        obs::Tracer::instance().stop();
        obs::Tracer::instance().start("");
    }
    ~ScopedTrace() { obs::Tracer::instance().stop(); }
};

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
    runtime::resetPipeTotals();
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    runtime::SimSession session(cfg, {},
                                std::make_shared<runtime::SimCache>());
    const auto layer = model::Layer::linear("fc", 32, 128, 128);
    const auto r1 = session.runLayer(layer); // miss
    const auto r2 = session.runLayer(layer); // memo hit
    EXPECT_EQ(r1.totalCycles, r2.totalCycles);
    const runtime::PipeTotals totals = runtime::pipeTotals();
    // The totals describe the workload, so the hit charges too.
    EXPECT_EQ(totals.results, 2u);
    EXPECT_EQ(totals.totalCycles, 2 * r1.totalCycles);
    for (unsigned p = 0; p < isa::kNumPipes; ++p) {
        const auto pipe = static_cast<isa::Pipe>(p);
        EXPECT_EQ(totals.busyCycles[p],
                  2 * r1.pipe(pipe).busyCycles);
        EXPECT_EQ(totals.waitCycles[p],
                  2 * r1.pipe(pipe).waitCycles);
        const double util = totals.utilization(pipe);
        EXPECT_GE(util, 0.0);
        EXPECT_LE(util, 1.0);
    }
    runtime::resetPipeTotals();
    EXPECT_EQ(runtime::pipeTotals().results, 0u);
}

} // anonymous namespace
} // namespace ascend
