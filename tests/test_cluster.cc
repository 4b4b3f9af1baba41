/**
 * @file
 * Tests for the server/cluster collective models and the
 * data-parallel training throughput estimator.
 */

#include <gtest/gtest.h>

#include "cluster/collective.hh"
#include "common/error.hh"

namespace ascend {
namespace cluster {
namespace {

TEST(RingAllreduce, SingleEndpointIsFree)
{
    EXPECT_DOUBLE_EQ(ringAllreduceSeconds(1 << 20, 1, 1e9, 1e-6), 0.0);
}

TEST(RingAllreduce, MatchesClosedForm)
{
    // n=4, 1 GB/s, no latency: volume = 2*3/4 * bytes.
    const Bytes bytes = 1000000;
    EXPECT_NEAR(ringAllreduceSeconds(bytes, 4, 1e9, 0),
                1.5 * bytes / 1e9, 1e-12);
    // Latency term: 2(n-1) hops.
    EXPECT_NEAR(ringAllreduceSeconds(0, 4, 1e9, 1e-6), 6e-6, 1e-12);
}

TEST(RingAllreduce, MonotonicInBytesAndInverseBandwidth)
{
    EXPECT_LT(ringAllreduceSeconds(1 << 20, 8, 1e10, 1e-6),
              ringAllreduceSeconds(1 << 21, 8, 1e10, 1e-6));
    EXPECT_LT(ringAllreduceSeconds(1 << 20, 8, 1e10, 1e-6),
              ringAllreduceSeconds(1 << 20, 8, 1e9, 1e-6));
}

TEST(ServerAllreduce, HierarchyAddsPciePhase)
{
    ServerConfig srv; // 2 groups of 4
    const Bytes bytes = 51 * 1000 * 1000;
    const double full = serverAllreduceSeconds(srv, bytes);
    ServerConfig one_group = srv;
    one_group.chips = 4;
    one_group.chipsPerGroup = 4;
    const double group_only = serverAllreduceSeconds(one_group, bytes);
    EXPECT_GT(full, group_only);
}

TEST(ClusterAllreduce, GrowsWithServerCount)
{
    ClusterConfig cl;
    const Bytes bytes = 51 * 1000 * 1000;
    cl.servers = 1;
    const double one = hierarchicalAllreduceSeconds(cl, bytes);
    cl.servers = 256;
    const double many = hierarchicalAllreduceSeconds(cl, bytes);
    EXPECT_GT(many, one);
    // But sub-linearly: ring volume converges to 2x shard size.
    EXPECT_LT(many, 20 * one);
}

TrainingJob
sampleJob()
{
    TrainingJob job;
    job.stepSecondsPerChip = 0.1;
    job.gradientBytes = 51 * 1000 * 1000;
    job.samplesPerChipStep = 256;
    job.overlapFraction = 0.5;
    return job;
}

TEST(TrainingJob, SingleChipHasNoCommunication)
{
    const ClusterConfig cl;
    EXPECT_DOUBLE_EQ(stepSeconds(sampleJob(), cl, 1), 0.1);
    EXPECT_DOUBLE_EQ(scalingEfficiency(sampleJob(), cl, 1), 1.0);
}

TEST(TrainingJob, ThroughputGrowsWithChips)
{
    const ClusterConfig cl;
    const auto job = sampleJob();
    double prev = 0;
    for (unsigned chips : {1u, 2u, 8u, 64u, 2048u}) {
        const double thr = throughputSamplesPerSec(job, cl, chips);
        EXPECT_GT(thr, prev);
        prev = thr;
    }
}

TEST(TrainingJob, EfficiencyDecaysButStaysReasonable)
{
    const ClusterConfig cl;
    const auto job = sampleJob();
    double prev = 1.0;
    for (unsigned chips : {2u, 8u, 256u, 2048u}) {
        const double eff = scalingEfficiency(job, cl, chips);
        EXPECT_LE(eff, prev + 1e-9);
        EXPECT_GT(eff, 0.5); // hierarchical allreduce keeps it high
        prev = eff;
    }
}

TEST(TrainingJob, OverlapHidesCommunication)
{
    const ClusterConfig cl;
    auto job = sampleJob();
    job.overlapFraction = 0.0;
    const double exposed = stepSeconds(job, cl, 8);
    job.overlapFraction = 1.0;
    const double hidden = stepSeconds(job, cl, 8);
    EXPECT_GT(exposed, hidden);
    EXPECT_DOUBLE_EQ(hidden, job.stepSecondsPerChip);
}

TEST(TrainingJob, BiggerGradientsCostMore)
{
    const ClusterConfig cl;
    auto job = sampleJob();
    const double small = stepSeconds(job, cl, 64);
    job.gradientBytes *= 10;
    EXPECT_GT(stepSeconds(job, cl, 64), small);
}

TEST(ClusterConfig, TotalChips)
{
    ClusterConfig cl;
    EXPECT_EQ(cl.totalChips(), 2048u);
}

TEST(TrainingJob, ZeroChipsRejected)
{
    const ClusterConfig cl;
    try {
        stepSeconds(sampleJob(), cl, 0);
        FAIL() << "zero chips must be refused";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::ConfigValidation);
        EXPECT_NE(std::string(e.what()).find("at least one chip"),
                  std::string::npos)
            << e.what();
    }
}

/** Chips within one server use HCCS; beyond use the fat-tree. */
class ChipCounts : public testing::TestWithParam<unsigned>
{
};

TEST_P(ChipCounts, StepTimeIsFiniteAndOrdered)
{
    const ClusterConfig cl;
    const auto job = sampleJob();
    const double s = stepSeconds(job, cl, GetParam());
    EXPECT_GE(s, job.stepSecondsPerChip);
    EXPECT_LT(s, job.stepSecondsPerChip + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChipCounts,
                         testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 256u,
                                         2048u));

} // anonymous namespace
} // namespace cluster
} // namespace ascend
