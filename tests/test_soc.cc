/**
 * @file
 * Tests for the three SoC models: published peak numbers, step-result
 * sanity, LLC-capacity monotonicity, mobile PPA, automotive QoS.
 */

#include <gtest/gtest.h>

#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "soc/auto_soc.hh"
#include "soc/chip_sim.hh"
#include "soc/mobile_soc.hh"
#include "soc/training_soc.hh"

namespace ascend {
namespace soc {
namespace {

TEST(TrainingSoc, PeakNumbersMatchPaper)
{
    TrainingSoc soc;
    // 256 TFLOPS fp16 / 512 TOPS int8 (Section 3.1.2).
    EXPECT_NEAR(soc.peakFlopsFp16() / 1e12, 262, 1);
    EXPECT_NEAR(soc.peakOpsInt8() / 1e12, 524, 2);
}

TEST(TrainingSoc, TrainStepIsSane)
{
    TrainingSoc soc;
    // tiny but complete
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(4));
    // gestureNet is int8; the Max core supports int8 too.
    const auto step = soc.trainStep(net);
    EXPECT_GT(step.seconds, 0.0);
    EXPECT_GE(step.llcHitRate(), 0.0);
    EXPECT_LE(step.llcHitRate(), 1.0);
    EXPECT_GT(step.llcTrafficBytes, 0u);
    EXPECT_NEAR(step.computeSeconds + step.llcBoundSeconds +
                    step.hbmBoundSeconds,
                step.seconds, 1e-9);
    EXPECT_GT(step.flops, 0u);
}

TEST(TrainingSoc, TrainingCostsMoreThanInference)
{
    TrainingSoc soc;
    const auto net = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    const auto inf = soc.inferStep(net);
    const auto tra = soc.trainStep(net);
    EXPECT_GT(tra.seconds, 1.5 * inf.seconds);
}

TEST(TrainingSoc, BiggerLlcNeverHurts)
{
    const auto net = graph::toNetwork(graph::zoo::mobilenetV2Graph(2));
    double prev = 1e18;
    for (Bytes cap : {64ull * kMiB, 256ull * kMiB, 1024ull * kMiB}) {
        TrainingSocConfig cfg;
        cfg.llcCapacity = cap;
        TrainingSoc soc(cfg);
        const double sec = soc.trainStep(net).seconds;
        EXPECT_LE(sec, prev * 1.01);
        prev = sec;
    }
}

TEST(TrainingSoc, MoreCoresMoreThroughput)
{
    const auto net = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    TrainingSocConfig small;
    small.aiCores = 8;
    TrainingSocConfig big;
    big.aiCores = 32;
    const auto s = TrainingSoc(small).inferStep(net);
    const auto b = TrainingSoc(big).inferStep(net);
    // Throughput = cores * batch / seconds.
    EXPECT_GT(32.0 / b.seconds, 8.0 / s.seconds);
}

TEST(TrainingSoc, WeightPinningKicksInForSmallModels)
{
    // ResNet50 weights (~51 MB) fit a 96 MiB LLC: hit rate should be
    // clearly better than a cache 1/8 the size where they do not.
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(2));
    TrainingSocConfig small;
    small.llcCapacity = 12 * kMiB;
    TrainingSocConfig big;
    big.llcCapacity = 96 * kMiB;
    const auto s = TrainingSoc(small).trainStep(net);
    const auto b = TrainingSoc(big).trainStep(net);
    EXPECT_GT(b.llcHitRate(), s.llcHitRate() + 0.05);
}

TEST(TrainingSoc, FluidInferStepEqualsManualChipSim)
{
    // fluidInferStep is sugar over runChipSim with the per-core task
    // queue replicated across all AI cores; the two must agree
    // bit for bit.
    TrainingSoc soc;
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(4));
    const std::vector<std::vector<CoreTask>> work(
        soc.config().aiCores, soc.coreTasks(net));
    const ChipSimResult manual =
        runChipSim(work, soc.config().llcBandwidth);
    const ChipSimResult fluid = soc.fluidInferStep(net);
    EXPECT_EQ(fluid.makespan, manual.makespan);
    EXPECT_EQ(fluid.avgMemUtilization, manual.avgMemUtilization);
    EXPECT_EQ(fluid.coreFinish, manual.coreFinish);
    EXPECT_TRUE(fluid.completed);
    EXPECT_EQ(fluid.coreFinish.size(), soc.config().aiCores);
}

TEST(MobileSoc, FluidBigLittleMakespanIsSane)
{
    MobileSoc kirin;
    const ChipSimResult r = kirin.fluidBigLittleMakespan(
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1)),
        graph::toNetwork(graph::zoo::gestureNetGraph(1)));
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFinish.size(),
              kirin.config().liteCores + kirin.config().tinyCores);
    EXPECT_GT(r.makespan, 0.0);
    // Shared LPDDR is the only memory path; some contention must show.
    EXPECT_GT(r.avgMemUtilization, 0.0);
}

TEST(AutoSoc, FluidFrameLatencyGrowsWithMoreNetworks)
{
    AutoSoc soc;
    const auto det = graph::toNetwork(graph::zoo::resnet50Graph(1));
    const auto seg = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    const double one = soc.fluidFrameLatencySeconds({&det});
    const double two = soc.fluidFrameLatencySeconds({&det, &seg});
    EXPECT_GT(one, soc.config().dvppFrameSeconds);
    // Adding a second network contends for DRAM: never faster.
    EXPECT_GE(two, one);
}

TEST(MobileSoc, PeakAndEfficiencyMatchTable8)
{
    MobileSoc kirin;
    EXPECT_NEAR(kirin.peakOpsInt8() / 1e12, 6.88, 0.15);
    EXPECT_NEAR(kirin.powerEfficiency(), 4.6, 0.5);
    EXPECT_NEAR(kirin.npuAreaMm2(), 4.0, 0.6);
}

TEST(MobileSoc, MobilenetLatencyInPublishedBand)
{
    MobileSoc kirin;
    const double ms = kirin.liteLatencySeconds(graph::toNetwork(
                          graph::zoo::mobilenetV2Graph(1))) *
                      1e3;
    // Paper: 5.2 ms; competitors 7-15 ms. Accept the 3-8 ms band.
    EXPECT_GT(ms, 3.0);
    EXPECT_LT(ms, 8.0);
}

TEST(MobileSoc, TinyHandlesAlwaysOnBudget)
{
    MobileSoc kirin;
    const double ms = kirin.tinyLatencySeconds(graph::toNetwork(
                          graph::zoo::gestureNetGraph(1))) *
                      1e3;
    // Always-on detection must run at high frame rates.
    EXPECT_LT(ms, 5.0);
}

TEST(MobileSoc, BigLittleOverlaps)
{
    MobileSoc kirin;
    const auto big = graph::toNetwork(graph::zoo::mobilenetV2Graph(2));
    const auto little = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    const double makespan = kirin.bigLittleMakespan(big, little);
    EXPECT_LE(makespan, kirin.liteLatencySeconds(big));
    EXPECT_GE(makespan, kirin.tinyLatencySeconds(little));
}

TEST(AutoSoc, PeakMatchesTable9)
{
    AutoSoc soc;
    EXPECT_NEAR(soc.peakOpsInt8() / 1e12, 160, 8);
    EXPECT_GT(soc.peakOpsInt4(), 1.9 * soc.peakOpsInt8());
}

TEST(AutoSoc, FrameLatencyIncludesDvppAndWorstModel)
{
    AutoSoc soc;
    const auto small = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    const auto big =
        graph::toNetwork(graph::zoo::resnet50Graph(1, DataType::Int8));
    const double only_small = soc.frameLatencySeconds({&small});
    const double mixed = soc.frameLatencySeconds({&small, &big});
    EXPECT_GE(only_small, soc.config().dvppFrameSeconds);
    EXPECT_GT(mixed, only_small);
}

TEST(AutoSoc, MpamProtectsCriticalTask)
{
    AutoSoc soc;
    const auto off = soc.qosExperiment(0);
    const auto on = soc.qosExperiment(4);
    EXPECT_LT(off.criticalHitRate, 0.3);
    EXPECT_GT(on.criticalHitRate, 0.9);
    EXPECT_LT(on.criticalAvgLatencyNs, off.criticalAvgLatencyNs);
}

TEST(AutoSoc, MpamWaysSweepIsMonotonicEnough)
{
    AutoSoc soc;
    const auto two = soc.qosExperiment(2);
    const auto eight = soc.qosExperiment(8);
    EXPECT_GE(eight.criticalHitRate + 1e-9, two.criticalHitRate);
}

TEST(AutoSocDeath, ReservingAllWaysIsFatal)
{
    AutoSoc soc;
    EXPECT_EXIT(soc.qosExperiment(16), testing::ExitedWithCode(1),
                "mpam_ways");
}

/** LLC capacity sweep property on the training SoC (Section 4.1). */
class LlcSweep : public testing::TestWithParam<Bytes>
{
};

TEST_P(LlcSweep, HitRateWithinBounds)
{
    TrainingSocConfig cfg;
    cfg.llcCapacity = GetParam() * kMiB;
    TrainingSoc soc(cfg);
    const auto step =
        soc.trainStep(graph::toNetwork(graph::zoo::gestureNetGraph(8)));
    EXPECT_GE(step.llcHitRate(), 0.0);
    EXPECT_LE(step.llcHitRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LlcSweep,
                         testing::Values(Bytes(32), Bytes(96), Bytes(360),
                                         Bytes(720)));

} // anonymous namespace
} // namespace soc
} // namespace ascend
