/**
 * @file
 * Section 4.2 / Fig. 15: Ascend 910 server and cluster scaling.
 * Eight chips per server (two HCCS groups bridged by PCIe), up to 256
 * servers in a fat-tree at 100 Gbps, 512 PFLOPS peak at 2048 chips.
 * Data-parallel ResNet50 training scaling with hierarchical gradient
 * allreduce, ending with the ImageNet time-to-train estimate the
 * paper headlines (sub-2-minute on the 2048-chip cluster).
 */

#include <iostream>

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
    const unsigned per_core_batch = 8;
    const auto per_core_net =
        graph::toNetwork(graph::zoo::resnet50Graph(per_core_batch));
    const auto step = soc910.trainStep(per_core_net);
    const unsigned batch_per_chip =
        per_core_batch * soc910.config().aiCores;

    cluster::ClusterConfig cl; // 256 servers x 8 chips
    cluster::TrainingJob job;
    job.stepSecondsPerChip = step.seconds;
    job.gradientBytes = per_core_net.parameterBytes(); // fp16 grads
    job.samplesPerChipStep = batch_per_chip;

    bench::banner("Section 4.2: Ascend 910 cluster scaling "
                  "(ResNet50, data parallel)");
    std::cout << "cluster peak: "
              << TextTable::num(soc910.peakFlopsFp16() *
                                    cl.totalChips() / 1e15, 0)
              << " PFLOPS fp16 at " << cl.totalChips()
              << " chips (paper: 512 PFLOPS)\n";

    TextTable t("scaling");
    t.header({"chips", "step (ms)", "img/s", "scaling eff %",
              "allreduce exposed (ms)"});
    for (unsigned chips : {1u, 2u, 4u, 8u, 64u, 256u, 1024u, 2048u}) {
        const double s = cluster::stepSeconds(job, cl, chips);
        t.row({TextTable::num(std::uint64_t(chips)),
               TextTable::num(s * 1e3, 2),
               TextTable::num(cluster::throughputSamplesPerSec(job, cl,
                                                               chips), 0),
               TextTable::num(100 * cluster::scalingEfficiency(job, cl,
                                                               chips), 1),
               TextTable::num((s - job.stepSecondsPerChip) * 1e3, 2)});
    }
    t.print(std::cout);

    // Time-to-train: MLPerf-closed ResNet50 converges in ~41 epochs
    // of 1.281M images.
    const double imgs = 1.281e6;
    const double epochs = 41;
    const double rate_256 =
        cluster::throughputSamplesPerSec(job, cl, 256);
    const double rate_2048 =
        cluster::throughputSamplesPerSec(job, cl, 2048);
    std::cout << "time-to-train (41 epochs): 256 chips: "
              << TextTable::num(imgs * epochs / rate_256, 0)
              << " s (paper: <83 s with full-stack tuning), 2048 chips: "
              << TextTable::num(imgs * epochs / rate_2048, 0) << " s\n";

    // Hierarchical allreduce latency decomposition for one gradient.
    bench::banner("Hierarchical allreduce of one ResNet50 gradient "
                  "(51 MB fp16)");
    TextTable a("allreduce");
    a.header({"scope", "seconds"});
    a.row({"intra-server (8 chips, HCCS+PCIe)",
           TextTable::num(cluster::serverAllreduceSeconds(
                              cl.server, job.gradientBytes) * 1e3, 3) +
               " ms"});
    a.row({"full cluster (2048 chips)",
           TextTable::num(cluster::hierarchicalAllreduceSeconds(
                              cl, job.gradientBytes) * 1e3, 3) +
               " ms"});
    a.print(std::cout);

    // Collective-algorithm comparison across the fat-tree.
    bench::banner("Allreduce algorithm comparison (256 servers, "
                  "100 Gbps)");
    TextTable c("algorithms");
    c.header({"message", "ring", "halving-doubling", "tree"});
    for (Bytes msg : {Bytes(64) * 1024, Bytes(1) << 20, Bytes(51) << 20,
                      Bytes(1) << 30}) {
        std::vector<std::string> row = {formatBytes(msg)};
        for (auto algo : {cluster::CollectiveAlgo::Ring,
                          cluster::CollectiveAlgo::HalvingDoubling,
                          cluster::CollectiveAlgo::Tree}) {
            row.push_back(TextTable::num(
                              cluster::allreduceAlgoSeconds(
                                  algo, msg, cl.servers,
                                  cl.netBytesPerSec, cl.netLatencySec) *
                                  1e3, 2) + " ms");
        }
        c.row(row);
    }
    c.print(std::cout);
    std::cout << "ring is bandwidth-optimal but latency-heavy at 256 "
                 "endpoints; halving-doubling\nwins for the gradient "
                 "sizes ResNet50/BERT ship.\n";
    return 0;
}
