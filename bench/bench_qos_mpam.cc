/**
 * @file
 * Section 3.3: MPAM + QoS protection in the automotive SoC.
 *
 * Two experiments:
 *  1. LLC way partitioning (MPAM): a latency-critical perception
 *     task's hot working set shares the LLC with bulk streaming
 *     traffic; MPAM reserves ways for it.
 *  2. NoC QoS: high-priority flits keep low latency under bulk load
 *     on the mesh (priority arbitration ~ the paper's starvation
 *     avoidance).
 *
 * Expected shape: without MPAM the critical task's hit rate collapses
 * under streaming interference and its memory latency approaches
 * DRAM latency; with MPAM it stays near the LLC latency. With QoS,
 * critical-flit latency stays near the unloaded value.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "noc/mesh.hh"
#include "noc/ring.hh"
#include "soc/auto_soc.hh"

using namespace ascend;

int
runBench()
{
    soc::AutoSoc soc610;

    bench::banner("Section 3.3 (1): MPAM way partitioning in the LLC");
    TextTable t("critical task vs streaming interference");
    t.header({"MPAM ways reserved", "critical hit %", "critical avg "
              "mem latency (ns)", "bulk hit %"});
    for (unsigned ways : {0u, 2u, 4u, 8u}) {
        const auto r = soc610.qosExperiment(ways);
        t.row({ways ? TextTable::num(std::uint64_t(ways)) : "off",
               TextTable::num(100 * r.criticalHitRate, 1),
               TextTable::num(r.criticalAvgLatencyNs, 1),
               TextTable::num(100 * r.bulkHitRate, 1)});
    }
    t.print(std::cout);
    std::cout << "(MPAM 'manages cache capacity ... more fine-grained'; "
                 "the reserved ways keep the\n critical working set "
                 "resident under interference)\n";

    bench::banner("Section 3.3 (2): NoC QoS under bulk load");
    noc::MeshConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    noc::MeshNoc mesh(cfg);
    TextTable q("priority arbitration");
    q.header({"bulk inject rate", "critical lat (cy)", "bulk lat (cy)"});
    for (double bulk : {0.05, 0.2, 0.4, 0.6}) {
        noc::MixedPriorityTraffic traffic(bulk, 0.05, 4, mesh.nodes());
        mesh.run(traffic, 20000);
        q.row({TextTable::num(bulk, 2),
               TextTable::num(mesh.avgLatency(1), 1),
               TextTable::num(mesh.avgLatency(0), 1)});
    }
    q.print(std::cout);
    std::cout << "(QoS 'is mainly used to avoid starvation': critical "
                 "latency stays flat while bulk\n latency grows with "
                 "load)\n";

    bench::banner("Section 3.3 (3): separated safety ring for the CPU "
                  "domain");
    noc::RingModel ring(noc::RingConfig{});
    std::cout << "ring unloaded latency: "
              << TextTable::num(ring.unloadedLatencyCycles(), 1)
              << " cycles; at 70% load: "
              << TextTable::num(ring.loadedLatencyCycles(0.7), 1)
              << " cycles; saturation "
              << formatRate(ring.saturationBytesPerSecPerNode())
              << " per node\n"
              << "(the CPU domain rides a private ASIL-D ring, so AI "
                 "bulk traffic cannot touch it)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
