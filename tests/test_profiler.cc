/**
 * @file
 * Tests for network profiling through runtime::SimSession and the
 * runtime/profile.hh aggregators: fusion grouping, ratio definitions,
 * training aggregation, and result accumulation.
 */

#include <gtest/gtest.h>

#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/sim_session.hh"

namespace ascend {
namespace {

using model::Layer;
using runtime::GroupProfile;
using runtime::LayerRun;
using runtime::SimSession;

model::Network
tinyNet()
{
    model::Network net;
    net.name = "tiny";
    net.add(Layer::conv2d("conv_a", 1, 8, 16, 16, 8, 3, 1, 1));
    net.add(Layer::batchNorm("bn_a", 8 * 16 * 16));
    net.add(Layer::activation("relu_a", 8 * 16 * 16,
                              model::ActKind::Relu));
    net.add(Layer::linear("fc", 1, 8 * 16 * 16, 10));
    net.add(Layer::softmax("sm", 1, 10));
    return net;
}

TEST(Profiler, RunsEveryLayer)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto runs = session.runInference(tinyNet());
    ASSERT_EQ(runs.size(), 5u);
    for (const LayerRun &run : runs)
        EXPECT_GT(run.result.totalCycles, 0u) << run.layer.name;
}

TEST(Profiler, FusionGroupsAnchorOnCubeLayers)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto groups = runtime::fusionGroups(session.runInference(tinyNet()));
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].name, "conv_a");
    EXPECT_EQ(groups[1].name, "fc");
}

TEST(Profiler, LeadingVectorLayerStartsItsOwnGroup)
{
    model::Network net;
    net.add(Layer::batchNorm("pre", 1024));
    net.add(Layer::linear("fc", 4, 64, 64));
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto groups = runtime::fusionGroups(session.runInference(net));
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].name, "pre");
    EXPECT_EQ(groups[0].cubeBusy, 0u);
}

TEST(Profiler, GroupTotalsEqualLayerSums)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto runs = session.runInference(tinyNet());
    const auto groups = runtime::fusionGroups(runs);
    Cycles group_total = 0, run_total = 0;
    for (const auto &g : groups)
        group_total += g.totalCycles;
    for (const auto &r : runs)
        run_total += r.result.totalCycles;
    EXPECT_EQ(group_total, run_total);
    EXPECT_EQ(run_total, runtime::totalCycles(runs));
}

TEST(Profiler, RatioDefinition)
{
    GroupProfile g;
    g.cubeBusy = 300;
    g.vectorBusy = 100;
    EXPECT_DOUBLE_EQ(g.cubeVectorRatio(), 3.0);
    g.vectorBusy = 0;
    EXPECT_DOUBLE_EQ(g.cubeVectorRatio(), 0.0); // defined as 0, not inf
}

TEST(Profiler, BandwidthDefinition)
{
    GroupProfile g;
    g.l1ReadBytes = 1000;
    g.l1WriteBytes = 500;
    g.totalCycles = 100;
    EXPECT_DOUBLE_EQ(g.l1ReadBitsPerCycle(), 80.0);
    EXPECT_DOUBLE_EQ(g.l1WriteBitsPerCycle(), 40.0);
}

TEST(Profiler, TrainingStepsIncludeBackwardWork)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto net = tinyNet();
    const auto inf = runtime::fusionGroups(session.runInference(net));
    const auto tra =
        runtime::fusionGroupsTraining(session.runTraining(net));
    ASSERT_EQ(inf.size(), tra.size());
    for (std::size_t i = 0; i < inf.size(); ++i) {
        EXPECT_EQ(inf[i].name, tra[i].name);
        EXPECT_GT(tra[i].totalCycles, inf[i].totalCycles);
        EXPECT_GE(tra[i].vectorBusy, inf[i].vectorBusy);
    }
}

TEST(Profiler, TrainingLowersCubeVectorRatio)
{
    // The paper's Fig. 4 vs Fig. 5 observation.
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto net = graph::toNetwork(
        graph::zoo::bertGraph("b", 1, 128, 512, 1, 8, 2048));
    const auto inf = runtime::fusionGroups(session.runInference(net));
    const auto tra =
        runtime::fusionGroupsTraining(session.runTraining(net));
    double inf_sum = 0, tra_sum = 0;
    std::size_t counted = 0;
    for (std::size_t i = 0; i < inf.size(); ++i) {
        if (inf[i].cubeVectorRatio() <= 0)
            continue;
        inf_sum += inf[i].cubeVectorRatio();
        tra_sum += tra[i].cubeVectorRatio();
        ++counted;
    }
    ASSERT_GT(counted, 0u);
    EXPECT_LT(tra_sum, inf_sum);
}

TEST(Profiler, InferenceResultAccumulates)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto net = tinyNet();
    const auto total = session.inferenceResult(net);
    EXPECT_EQ(total.totalCycles,
              runtime::totalCycles(session.runInference(net)));
    // Cube-layer FLOPs are exact; vector layers charge datapath
    // passes, so the simulated total is bounded but not equal.
    EXPECT_GE(total.totalFlops, net.totalFlops() * 9 / 10);
    EXPECT_LE(total.totalFlops, net.totalFlops() * 3);
}

} // anonymous namespace
} // namespace ascend
