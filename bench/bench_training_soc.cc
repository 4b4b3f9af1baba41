/**
 * @file
 * Table 7: training SoC PPA — Ascend 910 against the V100-like SIMT
 * model, the TPU-v3-like systolic model, and the Xeon-like CPU
 * roofline, on ResNet50 v1.5 training throughput (images/s) and
 * BERT-Large 8-chip training throughput (sequences/s).
 *
 * Expected shape (paper): Ascend 910 wins ResNet50 by ~1.7x over
 * V100 and ~1.9x over TPU v3, and BERT by a larger factor; the CPU is
 * orders of magnitude behind.
 */

#include <iostream>

#include "baseline/cpu.hh"
#include "baseline/simt.hh"
#include "baseline/systolic.hh"
#include "bench/bench_util.hh"
#include "cluster/collective.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "soc/training_soc.hh"

using namespace ascend;

int
main()
{
    soc::TrainingSoc soc910;

    // --- ResNet50 v1.5 training, global batch 256 (8 per core). ---
    const unsigned resnet_batch_per_core = 8;
    const unsigned resnet_batch =
        resnet_batch_per_core * soc910.config().aiCores;
    const auto resnet_core =
        graph::toNetwork(graph::zoo::resnet50Graph(resnet_batch_per_core));
    const auto resnet_step = soc910.trainStep(resnet_core);
    const double ascend_resnet = resnet_batch / resnet_step.seconds;

    const auto resnet_full =
        graph::toNetwork(graph::zoo::resnet50Graph(resnet_batch));
    baseline::GpuModel v100(baseline::v100Like());
    const auto v100_resnet = v100.runTraining(resnet_full);
    const double v100_imgs = resnet_batch / v100_resnet.seconds;

    baseline::SystolicArray tpu(baseline::tpuV3Like());
    const auto tpu_resnet = tpu.runTraining(resnet_full);
    const double tpu_imgs =
        resnet_batch / tpu_resnet.seconds(tpu.config().clockGhz);

    baseline::CpuModel cpu{baseline::CpuConfig{}};
    const double cpu_imgs =
        resnet_batch / cpu.trainingStepSeconds(resnet_full);

    // --- BERT-Large training on 8 chips (one server), seq 128
    // (phase-1 pretraining, the configuration behind the published
    // sequences/s numbers). ---
    const unsigned bert_batch_per_core = 2; // 64 sequences per chip
    const auto bert_core = graph::toNetwork(
        graph::zoo::bertLargeGraph(bert_batch_per_core, 128));
    const auto bert_step = soc910.trainStep(bert_core);
    const unsigned bert_batch_chip =
        bert_batch_per_core * soc910.config().aiCores;

    cluster::ClusterConfig one_server;
    one_server.servers = 1;
    cluster::TrainingJob bert_job;
    bert_job.stepSecondsPerChip = bert_step.seconds;
    bert_job.gradientBytes = bert_core.parameterBytes(); // fp16 grads
    bert_job.samplesPerChipStep = bert_batch_chip;
    const double ascend_bert_8p = cluster::throughputSamplesPerSec(
        bert_job, one_server, 8);

    const auto bert_full =
        graph::toNetwork(graph::zoo::bertLargeGraph(bert_batch_chip, 128));
    const auto v100_bert = v100.runTraining(bert_full);
    // 8 V100s with NVLink allreduce (~1.5x our HCCS bandwidth).
    cluster::ClusterConfig dgx = one_server;
    dgx.server.hccsBytesPerSec = 45e9;
    cluster::TrainingJob v100_job;
    v100_job.stepSecondsPerChip = v100_bert.seconds;
    v100_job.gradientBytes = bert_full.parameterBytes();
    v100_job.samplesPerChipStep = bert_batch_chip;
    const double v100_bert_8p =
        cluster::throughputSamplesPerSec(v100_job, dgx, 8);

    bench::banner("Table 7: training SoC PPA");
    TextTable t("modelled | paper");
    t.header({"metric", "V100-like", "TPUv3-like", "CPU-like",
              "Ascend 910", "paper V100", "paper 910"});
    t.row({"Peak perf (TFLOPS fp16)",
           TextTable::num(v100.config().tensorFlopsPerSec / 1e12, 0),
           TextTable::num(tpu.peakFlops() / 1e12, 0), "1.5",
           TextTable::num(soc910.peakFlopsFp16() / 1e12, 0),
           "125", "256"});
    t.row({"Power (W)", "300", "250", "205", "300", "300", "300"});
    t.row({"HBM bandwidth (GB/s)", "900", "900", "128", "1200", "900",
           "1200"});
    t.row({"ResNet50 v1.5 train (img/s)",
           TextTable::num(v100_imgs, 0), TextTable::num(tpu_imgs, 0),
           TextTable::num(cpu_imgs, 1), TextTable::num(ascend_resnet, 0),
           "1058", "1809"});
    t.row({"BERT-Large 8p (seq/s)", TextTable::num(v100_bert_8p, 0), "-",
           "-", TextTable::num(ascend_bert_8p, 0), "822", "3169"});
    t.print(std::cout);

    std::cout << "Ascend/V100 ResNet50 speedup: "
              << TextTable::num(ascend_resnet / v100_imgs, 2)
              << "x (paper: 1.71x)\n"
              << "Ascend/TPU ResNet50 speedup:  "
              << TextTable::num(ascend_resnet / tpu_imgs, 2)
              << "x (paper: 1.85x vs published 976 img/s)\n"
              << "Ascend/V100 BERT 8p speedup:  "
              << TextTable::num(ascend_bert_8p / v100_bert_8p, 2)
              << "x (paper: 3.85x)\n";

    std::cout << "\nAscend 910 step breakdown (ResNet50): compute "
              << TextTable::num(100 * resnet_step.computeSeconds /
                                    resnet_step.seconds, 0)
              << "%, LLC-bound "
              << TextTable::num(100 * resnet_step.llcBoundSeconds /
                                    resnet_step.seconds, 0)
              << "%, HBM-bound "
              << TextTable::num(100 * resnet_step.hbmBoundSeconds /
                                    resnet_step.seconds, 0)
              << "%, LLC hit rate "
              << TextTable::num(100 * resnet_step.llcHitRate(), 0)
              << "%\n";
    return 0;
}
