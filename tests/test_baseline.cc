/**
 * @file
 * Tests for the baseline accelerator models: systolic fill/drain
 * behaviour, SIMT wave quantization and split-K, CPU roofline.
 */

#include <gtest/gtest.h>

#include "baseline/cpu.hh"
#include "baseline/simt.hh"
#include "baseline/systolic.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

namespace ascend {
namespace baseline {
namespace {

TEST(Systolic, GemmCyclesFormula)
{
    SystolicConfig cfg;
    cfg.width = 128;
    SystolicArray arr(cfg);
    // One weight tile: fill + stream m + drain = m + 3w.
    EXPECT_EQ(arr.gemmCycles(1000, 128, 128), 1000u + 3 * 128);
    // Four weight tiles.
    EXPECT_EQ(arr.gemmCycles(1000, 256, 256), 4 * (1000u + 3 * 128));
}

TEST(Systolic, SmallMatricesWasteThePipeline)
{
    SystolicConfig cfg;
    cfg.width = 128;
    SystolicArray arr(cfg);
    // m = 16 rows through a 128-wide array: mostly fill/drain.
    const Cycles c = arr.gemmCycles(16, 128, 128);
    const double util =
        double(16) * 128 * 128 / (double(c) * 128 * 128);
    EXPECT_LT(util, 0.05);
}

TEST(Systolic, UtilizationGrowsWithBatch)
{
    SystolicArray arr(tpuV3Like());
    const auto small =
        arr.runInference(graph::toNetwork(graph::zoo::resnet50Graph(1)));
    const auto big =
        arr.runInference(graph::toNetwork(graph::zoo::resnet50Graph(32)));
    EXPECT_GT(big.utilization, small.utilization);
    EXPECT_GT(small.flops, 0u);
}

TEST(Systolic, TrainingCostsMoreThanInference)
{
    SystolicArray arr(tpuV3Like());
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(4));
    const auto inf = arr.runInference(net);
    const auto tra = arr.runTraining(net);
    EXPECT_GT(tra.cycles, 2 * inf.cycles);
    EXPECT_NEAR(double(tra.flops), 3.0 * double(inf.flops),
                0.25 * double(tra.flops));
}

TEST(Systolic, PeakFlops)
{
    SystolicArray tpu(tpuV3Like());
    EXPECT_NEAR(tpu.peakFlops(), 123e12, 2e12);
    SystolicArray fsd(fsdLike());
    EXPECT_NEAR(fsd.peakFlops(), 36.8e12, 1e12); // one of two arrays
}

TEST(SystolicDeath, ZeroWidthRejected)
{
    SystolicConfig cfg;
    cfg.width = 0;
    EXPECT_DEATH(SystolicArray{cfg}, "width");
}

TEST(Simt, BigGemmApproachesIssueEfficiency)
{
    GpuModel gpu(v100Like());
    const auto l = model::Layer::linear("g", 8192, 8192, 8192);
    const double sec = gpu.layerSeconds(l);
    const double achieved = double(l.flops()) / sec;
    const double target = gpu.config().tensorFlopsPerSec *
                          gpu.config().issueEfficiency;
    EXPECT_GT(achieved, 0.9 * target);
    EXPECT_LE(achieved, target);
}

TEST(Simt, WaveQuantizationHurtsSmallGemm)
{
    GpuModel gpu(v100Like());
    // Small m x n with small k: only a few tiles -> low occupancy.
    const auto small = model::Layer::linear("s", 64, 64, 64);
    const double sec = gpu.layerSeconds(small);
    const double achieved = double(small.flops()) / sec;
    EXPECT_LT(achieved,
              0.05 * gpu.config().tensorFlopsPerSec);
}

TEST(Simt, SplitKRecoversSkinnyGemms)
{
    // dW-shaped GEMM: tiny m x n, huge k. Without split-K this would
    // be single-tile; the model must credit the k-dimension.
    GpuModel gpu(v100Like());
    const auto dw = model::Layer::linear("dw", 64, 1 << 20, 64);
    const double sec = gpu.layerSeconds(dw);
    const double achieved = double(dw.flops()) / sec;
    EXPECT_GT(achieved, 0.3 * gpu.config().tensorFlopsPerSec *
                            gpu.config().issueEfficiency);
}

TEST(Simt, MemoryBoundLayersHitBandwidthRoofline)
{
    GpuModel gpu(v100Like());
    const auto bn = model::Layer::batchNorm("bn", 1ull << 28);
    const double sec = gpu.layerSeconds(bn);
    const double bytes = bn.inputBytes() + bn.outputBytes();
    EXPECT_GE(sec, bytes / gpu.config().memBandwidth);
}

TEST(Simt, LaunchLatencyDominatesTinyLayers)
{
    GpuModel gpu(v100Like());
    const auto tiny = model::Layer::elementwise("e", 8);
    EXPECT_GE(gpu.layerSeconds(tiny), gpu.config().launchLatencySec);
}

TEST(Simt, TrainingFlopsTripleInference)
{
    GpuModel gpu(v100Like());
    const auto net = graph::toNetwork(graph::zoo::mobilenetV2Graph(4));
    const auto inf = gpu.runInference(net);
    const auto tra = gpu.runTraining(net);
    EXPECT_NEAR(double(tra.flops), 3.0 * double(inf.flops),
                0.3 * double(tra.flops));
    EXPECT_GT(tra.seconds, inf.seconds);
}

TEST(Cpu, RooflineTakesTheMax)
{
    CpuModel cpu{CpuConfig{"c", 1e12, 1e11, 1.0, 1.0}};
    // Compute-bound layer.
    const auto big = model::Layer::linear("g", 1024, 1024, 1024);
    EXPECT_NEAR(cpu.layerSeconds(big), double(big.flops()) / 1e12,
                1e-6);
    // Memory-bound layer.
    const auto bn = model::Layer::batchNorm("bn", 1ull << 26);
    const double bytes = bn.inputBytes() + bn.outputBytes() +
                         bn.weightBytes();
    EXPECT_NEAR(cpu.layerSeconds(bn), bytes / 1e11, 1e-6);
}

TEST(Cpu, OrdersOfMagnitudeBehindOnTraining)
{
    CpuModel cpu{CpuConfig{}};
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(8));
    const double imgs =
        8.0 / cpu.trainingStepSeconds(net);
    EXPECT_LT(imgs, 100.0); // paper: CPUs are orders behind
    EXPECT_GT(imgs, 1.0);
}

/** Parameterized: the ordering Ascend > systolic holds per batch for
 * small-batch CNN inference (the paper's mobile/automotive claim). */
class SystolicSmallBatch : public testing::TestWithParam<unsigned>
{
};

TEST_P(SystolicSmallBatch, FsdUtilizationStaysLow)
{
    SystolicArray fsd(fsdLike());
    const auto r = fsd.runInference(
        graph::toNetwork(graph::zoo::mobilenetV2Graph(GetParam(),
                                                      DataType::Int8)));
    EXPECT_LT(r.utilization, 0.35);
}

INSTANTIATE_TEST_SUITE_P(Batches, SystolicSmallBatch,
                         testing::Values(1u, 2u, 4u));

} // anonymous namespace
} // namespace baseline
} // namespace ascend
