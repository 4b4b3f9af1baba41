/**
 * @file
 * Integration tests: the paper's headline shapes must hold end-to-end
 * through the full stack (zoo -> compiler -> core sim -> SoC /
 * baselines). These encode the figure/table expectations so a
 * regression in any module that breaks a reproduced result fails CI.
 */

#include <gtest/gtest.h>

#include "arch/unit_model.hh"
#include "baseline/simt.hh"
#include "baseline/systolic.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/sim_session.hh"
#include "soc/mobile_soc.hh"
#include "soc/training_soc.hh"

namespace ascend {
namespace {

using runtime::GroupProfile;
using runtime::SimSession;

double
fractionAboveOne(const std::vector<GroupProfile> &groups)
{
    unsigned above = 0, counted = 0;
    for (const auto &g : groups) {
        if (g.cubeBusy == 0)
            continue; // vector-only groups (embeddings etc.)
        ++counted;
        if (g.cubeVectorRatio() > 1.0)
            ++above;
    }
    return counted ? double(above) / counted : 0.0;
}

TEST(Figure4, BertInferenceIsCubeDominated)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto net = graph::toNetwork(
        graph::zoo::bertGraph("b", 1, 384, 1024, 2, 16, 4096));
    const auto groups = runtime::fusionGroups(session.runInference(net));
    // "For most layers, the ratio is much greater than 1."
    EXPECT_GT(fractionAboveOne(groups), 0.7);
}

TEST(Figure5, BertTrainingStaysMostlyAboveOne)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto net = graph::toNetwork(
        graph::zoo::bertGraph("b", 1, 384, 1024, 2, 16, 4096));
    const auto tra =
        runtime::fusionGroupsTraining(session.runTraining(net));
    EXPECT_GT(fractionAboveOne(tra), 0.6);
    // And training is less cube-biased than inference.
    const auto inf = runtime::fusionGroups(session.runInference(net));
    double inf_med = 0, tra_med = 0;
    for (const auto &g : inf)
        inf_med += g.cubeVectorRatio();
    for (const auto &g : tra)
        tra_med += g.cubeVectorRatio();
    EXPECT_LT(tra_med, inf_med);
}

TEST(Figure6, MobilenetIsVectorBoundOnTheBigCore)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto net = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    const auto groups = runtime::fusionGroups(session.runInference(net));
    // "most of the MobileNet layers' ratio are between 0 to 1"
    EXPECT_LE(fractionAboveOne(groups), 0.5);
}

TEST(Figure7, ResnetFirstOperatorsNearOneLaterAbove)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(1));
    const auto groups = runtime::fusionGroups(session.runInference(net));
    ASSERT_GT(groups.size(), 20u);
    // conv1 sits close to 1.
    EXPECT_GT(groups[0].cubeVectorRatio(), 0.3);
    EXPECT_LT(groups[0].cubeVectorRatio(), 2.0);
    // The deep stages are clearly cube-dominated.
    double late = 0;
    unsigned n = 0;
    for (std::size_t i = groups.size() - 10; i < groups.size() - 1; ++i) {
        late += groups[i].cubeVectorRatio();
        ++n;
    }
    EXPECT_GT(late / n, 1.5);
}

TEST(Figure8, GestureNetAllAboveOneOnTiny)
{
    SimSession session(arch::makeCoreConfig(arch::CoreVersion::Tiny));
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    const auto groups = runtime::fusionGroups(session.runInference(net));
    for (const auto &g : groups)
        EXPECT_GT(g.cubeVectorRatio(), 1.0) << g.name;
}

TEST(Figure9, BandwidthBoundsAndOrdering)
{
    auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    cfg.busABytesPerCycle *= 1024; // unlimited-L1 profiling config
    cfg.busBBytesPerCycle *= 1024;
    cfg.busUbBytesPerCycle *= 1024;
    SimSession session(cfg);

    auto max_read = [](const std::vector<GroupProfile> &groups) {
        double mx = 0;
        for (const auto &g : groups) {
            mx = std::max(mx, g.l1ReadBitsPerCycle());
            // Paper bound: reads <= 4096 bits/cy, writes <= 2048.
            EXPECT_LE(g.l1ReadBitsPerCycle(), 4096.0) << g.name;
            EXPECT_LE(g.l1WriteBitsPerCycle(), 2048.0) << g.name;
        }
        return mx;
    };
    const double mobile = max_read(runtime::fusionGroups(session.runInference(
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1)))));
    const double resnet = max_read(runtime::fusionGroups(session.runInference(
        graph::toNetwork(graph::zoo::resnet50Graph(1)))));
    // "MobileNet shows more L1 memory bandwidth requirement."
    EXPECT_GT(mobile, resnet * 0.99);
}

TEST(Section24, LiteWidthRecoversMobilenetRatios)
{
    SimSession max_core(arch::makeCoreConfig(arch::CoreVersion::Max));
    SimSession lite(arch::makeCoreConfig(arch::CoreVersion::Lite));
    const auto net = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    const double on_max = fractionAboveOne(
        runtime::fusionGroups(max_core.runInference(net)));
    const double on_lite = fractionAboveOne(
        runtime::fusionGroups(lite.runInference(net)));
    // The tailored Lite configuration (narrower cube relative to its
    // vector) pushes more operators above 1.
    EXPECT_GE(on_lite, on_max);
}

TEST(Table7, Ascend910BeatsBaselinesOnResnetTraining)
{
    soc::TrainingSoc soc910;
    const unsigned per_core = 4;
    const auto step = soc910.trainStep(
        graph::toNetwork(graph::zoo::resnet50Graph(per_core)));
    const unsigned batch = per_core * soc910.config().aiCores;
    const double ascend = batch / step.seconds;

    const auto full = graph::toNetwork(graph::zoo::resnet50Graph(batch));
    baseline::GpuModel v100(baseline::v100Like());
    const double gpu = batch / v100.runTraining(full).seconds;

    baseline::SystolicArray tpu(baseline::tpuV3Like());
    const auto tr = tpu.runTraining(full);
    const double sys = batch / tr.seconds(tpu.config().clockGhz);

    // Paper: 1809 vs 1058 vs 976 - Ascend wins by 1.5-3x.
    EXPECT_GT(ascend, 1.2 * gpu);
    EXPECT_GT(ascend, 1.2 * sys);
    EXPECT_LT(ascend, 6.0 * gpu); // and not absurdly so
}

TEST(Table8, KirinBeatsPublishedCompetitorLatency)
{
    soc::MobileSoc kirin;
    const double ms = kirin.liteLatencySeconds(graph::toNetwork(
                          graph::zoo::mobilenetV2Graph(1))) *
                      1e3;
    EXPECT_LT(ms, 7.0); // Dimensity 1000: 7 ms; SD865/Exynos: 15 ms
}

TEST(Table3Shape, CubeBeatsVectorByOrderOfMagnitudeInDensity)
{
    const auto cube =
        arch::modelCube({16, 16, 16}, 1.0, arch::TechNode::N7);
    const auto vec = arch::modelVector(256, 1.0, arch::TechNode::N7);
    EXPECT_GT(cube.perfPerArea() / vec.perfPerArea(), 5.0);
    EXPECT_GT(cube.perfPerWatt() / vec.perfPerWatt(), 3.0);
}

TEST(EndToEnd, EveryZooNetworkRunsOnItsTargetCore)
{
    struct Case
    {
        arch::CoreVersion core;
        model::Network net;
    };
    const Case cases[] = {
        {arch::CoreVersion::Tiny,
         graph::toNetwork(graph::zoo::gestureNetGraph(1))},
        {arch::CoreVersion::Lite,
         graph::toNetwork(graph::zoo::mobilenetV2Graph(1))},
        {arch::CoreVersion::Mini,
         graph::toNetwork(graph::zoo::resnet50Graph(1))},
        {arch::CoreVersion::Std, graph::toNetwork(graph::zoo::vgg16Graph(1))},
        {arch::CoreVersion::Max,
         graph::toNetwork(graph::zoo::bertBaseGraph(1, 128))},
    };
    for (const Case &c : cases) {
        SimSession session(arch::makeCoreConfig(c.core));
        const auto runs = session.runInference(c.net);
        EXPECT_EQ(runs.size(), c.net.size());
        Flops flops = 0;
        for (const auto &r : runs)
            flops += r.result.totalFlops;
        // Cube-layer FLOPs are accounted exactly; vector layers add
        // approximate datapath-pass work on top.
        EXPECT_GE(flops, c.net.totalFlops() * 9 / 10) << c.net.name;
    }
}

} // anonymous namespace
} // namespace ascend
