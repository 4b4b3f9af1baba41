/**
 * @file
 * Section 5.2 study: block-level parallel execution on the Ascend
 * 910 with shared-memory contention.
 *
 * The roofline model assumes 32 lockstep cores; the fluid chip
 * simulator relaxes that. This bench compares three executions of a
 * ResNet50 inference batch on 32 cores:
 *   1. lockstep roofline (the TrainingSoc estimate),
 *   2. fluid simulation with an even batch split,
 *   3. fluid simulation with a skewed split (imbalanced blocks),
 * and reports the contention/straggler penalties, plus the NoC tail
 * latency (p50/p99) the memory traffic experiences.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "noc/mesh.hh"
#include "soc/chip_sim.hh"
#include "soc/training_soc.hh"

using namespace ascend;

int
main()
{
    soc::TrainingSoc soc910;
    const auto &cfg = soc910.config();

    bench::banner("Section 5.2: block-parallel ResNet50 on 32 cores");

    // 1. Lockstep roofline.
    const auto roofline =
        soc910.inferStep(graph::toNetwork(graph::zoo::resnet50Graph(4)));

    // 2. Fluid, even split: every core runs batch 4.
    const auto fluid_even =
        soc910.fluidInferStep(graph::toNetwork(graph::zoo::resnet50Graph(4)));

    // 3. Fluid, skewed split: half the cores get batch 6, half get 2.
    const auto heavy =
        soc910.coreTasks(graph::toNetwork(graph::zoo::resnet50Graph(6)));
    const auto light =
        soc910.coreTasks(graph::toNetwork(graph::zoo::resnet50Graph(2)));
    std::vector<std::vector<soc::CoreTask>> skewed;
    for (unsigned c = 0; c < cfg.aiCores; ++c)
        skewed.push_back(c % 2 ? heavy : light);
    const auto fluid_skewed =
        soc::runChipSim(skewed, cfg.llcBandwidth);

    TextTable t("batch-128 inference, 32 cores");
    t.header({"model", "time (ms)", "vs roofline", "mem util %"});
    t.row({"lockstep roofline",
           TextTable::num(roofline.seconds * 1e3, 2), "1.00x", "-"});
    t.row({"fluid, even blocks",
           TextTable::num(fluid_even.makespan * 1e3, 2),
           TextTable::num(fluid_even.makespan / roofline.seconds, 2) +
               "x",
           TextTable::num(100 * fluid_even.avgMemUtilization, 1)});
    t.row({"fluid, skewed blocks (6/2)",
           TextTable::num(fluid_skewed.makespan * 1e3, 2),
           TextTable::num(fluid_skewed.makespan / roofline.seconds, 2) +
               "x",
           TextTable::num(100 * fluid_skewed.avgMemUtilization, 1)});
    t.print(std::cout);
    std::cout << "The fluid model is an optimistic bound (LLC-rate "
                 "memory, no HBM misses), so it\nundershoots the "
                 "roofline; the load-balance effect is the even-vs-"
                 "skewed gap:\nskewed blocks cost "
              << TextTable::num(fluid_skewed.makespan /
                                    fluid_even.makespan, 2)
              << "x - the Section 5.2 block scheduler's job is to keep "
                 "splits even.\n";

    // NoC tail latency under the corresponding traffic level.
    bench::banner("NoC tail latency under load (bufferless mesh)");
    noc::MeshNoc mesh(cfg.mesh);
    TextTable n("latency percentiles");
    n.header({"inject rate", "p50 (cy)", "p99 (cy)"});
    for (double rate : {0.1, 0.3, 0.45}) {
        noc::UniformTraffic traffic(rate, mesh.nodes());
        mesh.run(traffic, 20000);
        n.row({TextTable::num(rate, 2),
               TextTable::num(mesh.latencyPercentile(0, 0.5), 1),
               TextTable::num(mesh.latencyPercentile(0, 0.99), 1)});
    }
    n.print(std::cout);
    std::cout << "The p99/p50 gap widens with load - the deflection "
                 "tail the paper's QoS policy\nbounds for "
                 "latency-critical traffic.\n";
    return 0;
}
