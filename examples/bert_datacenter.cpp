/**
 * @file
 * Data-center scenario: BERT-Large on Ascend-Max cores, the Ascend
 * 910 SoC, and a multi-server cluster — the "smart cloud" end of the
 * paper's Table 1 spectrum.
 *
 * Walks the full public API surface top-down:
 *   1. profile one encoder on a single core (cube/vector balance),
 *   2. run a training step on the 32-core SoC with the LLC/HBM
 *      memory system,
 *   3. scale the job across servers with hierarchical allreduce.
 */

#include <iostream>

#include "cluster/collective.hh"
#include "common/table.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/sim_session.hh"
#include "soc/training_soc.hh"

using namespace ascend;

int
main()
{
    // 1. One encoder layer on one Ascend-Max core.
    const auto core_cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    runtime::SimSession session(core_cfg);
    const auto one_layer = graph::toNetwork(
        graph::zoo::bertGraph("bert_encoder", 1, 384, 1024, 1, 16, 4096));
    const auto runs = session.runInference(one_layer);

    std::cout << "=== one BERT-Large encoder layer on "
              << core_cfg.name << " ===\n";
    TextTable t;
    t.header({"operator", "cycles", "cube util %", "vector util %"});
    for (const auto &g : runtime::fusionGroups(runs)) {
        t.row({g.name, TextTable::num(std::uint64_t(g.totalCycles)),
               TextTable::num(100.0 * g.cubeBusy / g.totalCycles, 1),
               TextTable::num(100.0 * g.vectorBusy / g.totalCycles, 1)});
    }
    t.print(std::cout);

    // 2. A full training step on the Ascend 910 SoC.
    soc::TrainingSoc soc910;
    const auto per_core = graph::toNetwork(graph::zoo::bertLargeGraph(2, 128));
    const auto step = soc910.trainStep(per_core);
    const unsigned chip_batch = 2 * soc910.config().aiCores;
    std::cout << "\n=== BERT-Large training step on Ascend 910 ===\n"
              << "batch " << chip_batch << ", step "
              << TextTable::num(step.seconds * 1e3, 2) << " ms, "
              << TextTable::num(step.achievedFlops() / 1e12, 1)
              << " TFLOPS achieved of "
              << TextTable::num(soc910.peakFlopsFp16() / 1e12, 0)
              << " peak, LLC hit rate "
              << TextTable::num(100 * step.llcHitRate(), 1) << "%\n";

    // 3. Scale out across servers.
    cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.stepSecondsPerChip = step.seconds;
    job.gradientBytes = per_core.parameterBytes();
    job.samplesPerChipStep = chip_batch;

    std::cout << "\n=== cluster scale-out ===\n";
    TextTable s;
    s.header({"chips", "sequences/s", "scaling eff %"});
    for (unsigned chips : {1u, 8u, 64u, 512u}) {
        s.row({TextTable::num(std::uint64_t(chips)),
               TextTable::num(cluster::throughputSamplesPerSec(job, cl,
                                                               chips), 0),
               TextTable::num(100 * cluster::scalingEfficiency(job, cl,
                                                               chips),
                              1)});
    }
    s.print(std::cout);
    return 0;
}
