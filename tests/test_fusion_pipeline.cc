/**
 * @file
 * Tests for the operator-fusion pass and the pipeline-parallel
 * extension.
 */

#include <gtest/gtest.h>

#include "cluster/collective.hh"
#include "compiler/fusion.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/sim_session.hh"

namespace ascend {
namespace {

using compiler::fuseNetwork;
using compiler::FusionReport;
using model::Layer;

TEST(Fusion, FoldsBnReluIntoConv)
{
    model::Network net;
    net.add(Layer::conv2d("c", 1, 8, 16, 16, 8, 3, 1, 1));
    net.add(Layer::batchNorm("bn", 8 * 16 * 16));
    net.add(Layer::activation("r", 8 * 16 * 16, model::ActKind::Relu));
    FusionReport report;
    const auto fused = fuseNetwork(net, &report);
    ASSERT_EQ(fused.size(), 1u);
    EXPECT_EQ(report.fusedLayers(), 2u);
    EXPECT_DOUBLE_EQ(fused.layers[0].fusedEvictPasses, 3.0);
}

TEST(Fusion, DoesNotFoldReductions)
{
    model::Network net;
    net.add(Layer::linear("fc", 4, 64, 64));
    net.add(Layer::softmax("sm", 4, 64));
    const auto fused = fuseNetwork(net);
    EXPECT_EQ(fused.size(), 2u); // softmax reduces: stays standalone
}

TEST(Fusion, DoesNotFoldAcrossVolumeChanges)
{
    model::Network net;
    net.add(Layer::conv2d("c", 1, 8, 16, 16, 8, 3, 1, 1));
    // Elementwise with a different volume: not the conv's output.
    net.add(Layer::elementwise("other", 999));
    const auto fused = fuseNetwork(net);
    EXPECT_EQ(fused.size(), 2u);
}

TEST(Fusion, LeadingVectorLayerStaysStandalone)
{
    model::Network net;
    net.add(Layer::batchNorm("bn", 100));
    net.add(Layer::linear("fc", 4, 64, 64));
    const auto fused = fuseNetwork(net);
    EXPECT_EQ(fused.size(), 2u);
}

TEST(Fusion, ShrinksResnetSubstantially)
{
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(1));
    FusionReport report;
    const auto fused = fuseNetwork(net, &report);
    // Every conv's bn + relu (+ add) folds: well over half the layers.
    EXPECT_LT(fused.size(), net.size() / 2 + 10);
    EXPECT_GT(report.fusedLayers(), 80u);
}

TEST(Fusion, FusedNetworkRunsFasterWithLessTraffic)
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(1));
    const auto fused = fuseNetwork(net);

    Cycles plain_cycles = 0, fused_cycles = 0;
    Bytes plain_ext = 0, fused_ext = 0;
    for (const auto &r : session.runInference(net)) {
        plain_cycles += r.result.totalCycles;
        plain_ext += r.result.extBytes();
    }
    for (const auto &r : session.runInference(fused)) {
        fused_cycles += r.result.totalCycles;
        fused_ext += r.result.extBytes();
    }
    EXPECT_LT(fused_cycles, plain_cycles);
    EXPECT_LT(fused_ext, plain_ext);
    // The fused layers' activations never round-trip off-core: the
    // traffic saving is substantial, not marginal.
    EXPECT_LT(double(fused_ext), 0.85 * double(plain_ext));
}

TEST(Fusion, FlopAccountingStillCoversCubeWork)
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));
    const auto fused =
        fuseNetwork(graph::toNetwork(graph::zoo::resnet50Graph(1)));
    Flops flops = 0;
    for (const auto &r : session.runInference(fused))
        flops += r.result.totalFlops;
    // Cube FLOPs unchanged by fusion (~8.2 GFLOPs at b=1).
    EXPECT_GT(flops, 7.5e9);
}

// ------------------------------------------------------ pipeline

TEST(Pipeline, SingleStageHasNoBubbles)
{
    cluster::PipelineJob job;
    job.stages = 1;
    job.microBatches = 8;
    job.stageSecondsPerMicroBatch = 0.01;
    EXPECT_DOUBLE_EQ(cluster::pipelineBubbleFraction(job), 0.0);
    EXPECT_NEAR(cluster::pipelineStepSeconds(job), 0.08, 1e-12);
}

TEST(Pipeline, BubbleFractionFormula)
{
    cluster::PipelineJob job;
    job.stages = 4;
    job.microBatches = 12;
    EXPECT_NEAR(cluster::pipelineBubbleFraction(job), 3.0 / 15, 1e-12);
}

TEST(Pipeline, MoreMicroBatchesAmortizeBubbles)
{
    cluster::PipelineJob job;
    job.stages = 8;
    job.stageSecondsPerMicroBatch = 0.001;
    job.microBatches = 8;
    const double few = cluster::pipelineBubbleFraction(job);
    job.microBatches = 64;
    const double many = cluster::pipelineBubbleFraction(job);
    EXPECT_LT(many, few);
}

TEST(Pipeline, BoundaryTrafficAddsToSlotTime)
{
    cluster::PipelineJob job;
    job.stages = 2;
    job.microBatches = 4;
    job.stageSecondsPerMicroBatch = 0.001;
    job.boundaryBytes = 0;
    const double dry = cluster::pipelineStepSeconds(job);
    job.boundaryBytes = Bytes(30e6); // 1 ms over HCCS
    EXPECT_GT(cluster::pipelineStepSeconds(job), 1.8 * dry);
}

TEST(Pipeline, CanBeatDataParallelWhenGradientsAreHuge)
{
    // A model with enormous parameters but modest activations (a
    // Wide&Deep-style embedding-dominated model): data parallelism
    // pays full-gradient allreduce, pipeline only ships activations.
    const Bytes grad_bytes = Bytes(4e9);
    const double step_compute = 0.05;

    cluster::ClusterConfig cl;
    cl.servers = 1;
    cluster::TrainingJob dp;
    dp.stepSecondsPerChip = step_compute;
    dp.gradientBytes = grad_bytes;
    dp.samplesPerChipStep = 32;
    dp.overlapFraction = 0.0;
    const double dp_step = cluster::stepSeconds(dp, cl, 8);

    cluster::PipelineJob pp;
    pp.stages = 8;
    pp.microBatches = 32;
    pp.stageSecondsPerMicroBatch = step_compute / 32; // model split 8x,
    // micro-batch 1/32 of the batch: per-slot compute = step/(32) / 8
    // * 8 chips working concurrently ~ step/32 per slot.
    pp.boundaryBytes = Bytes(1e6);
    const double pp_step = cluster::pipelineStepSeconds(pp);
    EXPECT_LT(pp_step, dp_step);
}

} // anonymous namespace
} // namespace ascend
