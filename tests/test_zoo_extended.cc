/**
 * @file
 * Tests for the extended zoo (MaskRCNN, Wide & Deep, LSTM, SLAM),
 * the CvOp layer kind, the optimizer expansion, the Vector-Core
 * lowering and the fp32-cube next-generation mode.
 */

#include <gtest/gtest.h>

#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/sim_session.hh"
#include "soc/auto_soc.hh"
#include "soc/training_soc.hh"

namespace ascend {
namespace {

using model::Layer;
using model::LayerKind;
using model::OptimizerKind;

TEST(CvOp, FactoryAndCost)
{
    const Layer op = Layer::cvOp("nms", 1000, 14.0);
    EXPECT_EQ(op.kind, LayerKind::CvOp);
    EXPECT_FALSE(op.isCubeLayer());
    EXPECT_EQ(op.flops(), 14000u);
    EXPECT_EQ(op.weightBytes(), 0u);
}

TEST(CvOp, RunsOnVectorPipeWithPassScaling)
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));
    model::Network cheap, costly;
    cheap.add(Layer::cvOp("a", 100000, 2.0));
    costly.add(Layer::cvOp("b", 100000, 20.0));
    const auto rc = session.runInference(cheap);
    const auto rx = session.runInference(costly);
    EXPECT_GT(rx[0].result.pipe(isa::Pipe::Vector).busyCycles,
              5 * rc[0].result.pipe(isa::Pipe::Vector).busyCycles);
}

TEST(ZooExtended, MaskRcnnContainsDetectionStages)
{
    const auto net = graph::zoo::maskRcnn(1);
    unsigned cv = 0;
    bool has_fpn = false, has_mask = false;
    for (const Layer &l : net.layers) {
        if (l.kind == LayerKind::CvOp)
            ++cv;
        if (l.name.find("fpn.") == 0)
            has_fpn = true;
        if (l.name.find("mask.") == 0)
            has_mask = true;
    }
    EXPECT_GE(cv, 2u); // NMS + RoiAlign
    EXPECT_TRUE(has_fpn);
    EXPECT_TRUE(has_mask);
    // Heavier than bare ResNet50.
    EXPECT_GT(net.totalFlops(),
              graph::toNetwork(graph::zoo::resnet50Graph(1)).totalFlops());
}

TEST(ZooExtended, WideDeepIsSmallAndMemoryFlavoured)
{
    const auto net = graph::zoo::wideDeep(256);
    EXPECT_LT(net.totalFlops(), 2e9);
    bool has_gather = false;
    for (const Layer &l : net.layers)
        if (l.kind == LayerKind::CvOp)
            has_gather = true;
    EXPECT_TRUE(has_gather);
}

TEST(ZooExtended, LstmLayerCountScalesWithSeqAndDepth)
{
    const auto a = graph::zoo::lstm(1, 8, 256, 512, 1);
    const auto b = graph::zoo::lstm(1, 16, 256, 512, 2);
    EXPECT_GT(b.size(), 3 * a.size());
    // 3 layers per timestep per layer + final projection.
    EXPECT_EQ(a.size(), 8u * 3 + 1);
}

TEST(ZooExtended, SlamIsVectorOnlyExceptQuaternionGemm)
{
    const auto net = graph::zoo::slamFrontend(2048);
    unsigned cube_layers = 0;
    for (const Layer &l : net.layers)
        if (l.isCubeLayer())
            ++cube_layers;
    EXPECT_EQ(cube_layers, 1u); // the 4x4x4 pose jacobians
}

TEST(ZooExtended, AllNewNetworksRunOnTheStdCore)
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));
    for (const auto &net :
         {graph::zoo::maskRcnn(1), graph::zoo::wideDeep(64),
          graph::zoo::lstm(4, 4), graph::zoo::slamFrontend(512)}) {
        const auto runs = session.runInference(net);
        EXPECT_EQ(runs.size(), net.size()) << net.name;
        for (const auto &r : runs)
            EXPECT_GT(r.result.totalCycles, 0u)
                << net.name << ":" << r.layer.name;
    }
}

TEST(Optimizer, StateTensorsPerKind)
{
    EXPECT_EQ(model::optimizerStateTensors(OptimizerKind::Sgd), 0u);
    EXPECT_EQ(model::optimizerStateTensors(OptimizerKind::Momentum), 1u);
    EXPECT_EQ(model::optimizerStateTensors(OptimizerKind::Adam), 2u);
}

TEST(Optimizer, AdamUpdateCostsMoreVectorWork)
{
    const Layer fc = Layer::linear("fc", 64, 512, 512);
    const auto sgd = model::backwardLayers(fc, OptimizerKind::Sgd);
    const auto adam = model::backwardLayers(fc, OptimizerKind::Adam);
    ASSERT_EQ(sgd.size(), adam.size());
    EXPECT_GT(adam.back().flops(), 3 * sgd.back().flops());
}

TEST(Optimizer, AdamTrainingStepIsSlowerOnTheSoc)
{
    soc::TrainingSoc soc;
    const auto net = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    const auto sgd = soc.trainStep(net, OptimizerKind::Sgd);
    const auto adam = soc.trainStep(net, OptimizerKind::Adam);
    EXPECT_GT(adam.seconds, sgd.seconds);
    EXPECT_GT(adam.llcTrafficBytes, sgd.llcTrafficBytes);
}

TEST(VectorCore, GemmLowersToVectorPasses)
{
    auto cfg = arch::makeCoreConfig(arch::CoreVersion::Std);
    compiler::CompileOptions options;
    options.mapGemmToVector = true;
    compiler::LayerCompiler lc(cfg, options);
    core::CoreSim sim(cfg);
    const auto r =
        sim.run(lc.compile(Layer::batchedMatmul("q", 100, 4, 4, 4)));
    EXPECT_EQ(r.pipe(isa::Pipe::Cube).busyCycles, 0u);
    EXPECT_GT(r.pipe(isa::Pipe::Vector).busyCycles, 0u);
}

TEST(VectorCore, SlamFrontendMeetsFrameBudget)
{
    soc::AutoSoc soc;
    const double ms =
        soc.slamLatencySeconds(graph::zoo::slamFrontend(2048)) * 1e3;
    // The localization loop must close well within a 100 ms budget.
    EXPECT_LT(ms, 100.0);
    EXPECT_GT(ms, 0.01);
}

TEST(NextGen, Fp32CubeHalvesReduction)
{
    const auto next = arch::makeNextGenCoreConfig();
    const auto shape = next.cubeShapeFor(DataType::Fp32);
    EXPECT_EQ(shape.k0, 8u);
    EXPECT_EQ(shape.m0, 16u);
    // Half the fp16 throughput.
    EXPECT_EQ(shape.flopsPerCycle(),
              next.cubeShapeFor(DataType::Fp16).flopsPerCycle() / 2);
}

TEST(NextGenDeath, Fp32CubeIsFatalOnShippingCores)
{
    const auto max = arch::makeCoreConfig(arch::CoreVersion::Max);
    EXPECT_EXIT(max.cubeShapeFor(DataType::Fp32),
                testing::ExitedWithCode(1), "next-generation");
}

TEST(NextGen, Fp32GemmRunsEndToEnd)
{
    const auto cfg = arch::makeNextGenCoreConfig();
    compiler::LayerCompiler lc(cfg);
    core::CoreSim sim(cfg);
    const auto l =
        Layer::linear("hpc", 256, 256, 256, DataType::Fp32);
    const auto r = sim.run(lc.compile(l));
    EXPECT_EQ(r.totalFlops, l.flops());
}

} // anonymous namespace
} // namespace ascend
