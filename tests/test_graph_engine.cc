/**
 * @file
 * Tests for the graph engine's stream compilation and the multi-level
 * task scheduler (Section 5.2 semantics).
 */

#include <gtest/gtest.h>

#include "compiler/graph_engine.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

namespace ascend {
namespace compiler {
namespace {

App
makeApp(const std::string &name, std::vector<std::vector<Cycles>> streams,
        unsigned blocks = 1)
{
    App app;
    app.name = name;
    for (auto &tasks : streams) {
        Stream s;
        s.name = name + ".s" + std::to_string(app.streams.size());
        for (Cycles c : tasks)
            s.tasks.push_back(Task{"t", c, blocks});
        app.streams.push_back(std::move(s));
    }
    return app;
}

TEST(Scheduler, SingleStreamOnOneCoreIsSerial)
{
    const App app = makeApp("a", {{100, 200, 300}});
    const auto r = schedule({app}, 1);
    EXPECT_EQ(r.makespan, 600u);
    EXPECT_NEAR(r.avgCoreUtilization, 1.0, 1e-9);
}

TEST(Scheduler, StreamOrderIsPreservedEvenWithManyCores)
{
    // In-order stream: extra cores cannot shorten a single stream of
    // single-block tasks.
    const App app = makeApp("a", {{100, 200, 300}});
    const auto r = schedule({app}, 8);
    EXPECT_EQ(r.makespan, 600u);
}

TEST(Scheduler, BlocksSplitAcrossCores)
{
    const App app = makeApp("a", {{400}}, /*blocks=*/4);
    const auto one = schedule({app}, 1);
    const auto four = schedule({app}, 4);
    EXPECT_EQ(one.makespan, 400u);
    EXPECT_EQ(four.makespan, 100u);
}

TEST(Scheduler, TwoStreamsOverlap)
{
    const App app = makeApp("a", {{300}, {300}});
    const auto r = schedule({app}, 2);
    EXPECT_EQ(r.makespan, 300u);
}

TEST(Scheduler, TwoAppsShareCoresFairly)
{
    const App a = makeApp("a", {{100, 100}});
    const App b = makeApp("b", {{100, 100}});
    const auto r = schedule({a, b}, 2);
    EXPECT_EQ(r.makespan, 200u);
    ASSERT_EQ(r.appFinish.size(), 2u);
    EXPECT_LE(r.appFinish[0], 200u);
    EXPECT_LE(r.appFinish[1], 200u);
}

TEST(Scheduler, MakespanLowerBounds)
{
    // makespan >= total work / cores and >= the longest stream.
    const App a = makeApp("a", {{500, 500}, {100}});
    const auto r = schedule({a}, 2);
    EXPECT_GE(r.makespan, 1000u); // longest stream
    EXPECT_GE(r.makespan, (500u + 500 + 100) / 2);
}

TEST(Scheduler, EmptyAppsYieldZeroMakespan)
{
    const auto r = schedule({}, 4);
    EXPECT_EQ(r.makespan, 0u);
}

TEST(SchedulerDeath, ZeroCoresRejected)
{
    const App a = makeApp("a", {{1}});
    EXPECT_DEATH(schedule({a}, 0), "at least one core");
}

TEST(GraphCompiler, StreamHasOneTaskPerFusionGroup)
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    const Stream s = compileToStream(session, net);
    const auto groups = runtime::fusionGroups(session.runInference(net));
    EXPECT_EQ(s.tasks.size(), groups.size());
    Cycles total = 0;
    for (const Task &t : s.tasks) {
        EXPECT_GT(t.cycles, 0u);
        EXPECT_GE(t.blocks, 1u);
        EXPECT_LE(t.blocks, 4u);
        total += t.cycles;
    }
    EXPECT_EQ(total, runtime::totalCycles(session.runInference(net)));
}

TEST(GraphCompiler, ConcurrentAppsBeatSerialExecution)
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));
    App a;
    a.streams.push_back(compileToStream(
        session, graph::toNetwork(graph::zoo::gestureNetGraph(1))));
    App b;
    b.streams.push_back(compileToStream(
        session, graph::toNetwork(graph::zoo::mobilenetV2Graph(1))));
    const auto serial =
        schedule({a}, 4).makespan + schedule({b}, 4).makespan;
    const auto together = schedule({a, b}, 4).makespan;
    EXPECT_LT(together, serial);
}

} // anonymous namespace
} // namespace compiler
} // namespace ascend
