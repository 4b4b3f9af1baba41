/**
 * @file
 * Section 3.1.1 / Fig. 12: the Ascend 910 compute-die NoC — a 4 x 6
 * 2D mesh with 1024-bit links at 2 GHz (256 GB/s per link), in a
 * bufferless (deflection) organization, with core-to-LLC hotspot
 * traffic sustaining ~4 TB/s of aggregate L2 bandwidth.
 *
 * The bench sweeps injection rate under uniform traffic for both the
 * bufferless and buffered router (the area-saving design choice), and
 * then runs the core-to-LLC hotspot pattern of the real floorplan.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "noc/mesh.hh"

using namespace ascend;

int
runBench()
{
    noc::MeshConfig cfg; // 6x4, 128 B flits, 2 GHz, bufferless
    noc::MeshNoc mesh(cfg);

    bench::banner("Section 3.1.1: Ascend 910 mesh NoC (4 x 6, "
                  "1024-bit links at 2 GHz)");
    std::cout << "per-link bandwidth: "
              << formatRate(mesh.linkBandwidthBytesPerSec())
              << " (paper: 256 GB/s)\n";

    for (bool bufferless : {true, false}) {
        cfg.bufferless = bufferless;
        noc::MeshNoc m(cfg);
        TextTable t(bufferless ? "bufferless (deflection) router"
                               : "buffered (input-queued) router");
        t.header({"inject rate", "delivered/cy", "avg lat (cy)",
                  "avg hops", "agg bandwidth", "stall %"});
        for (double rate : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
            noc::UniformTraffic traffic(rate, m.nodes());
            const auto s = m.run(traffic, 20000);
            t.row({TextTable::num(rate, 2),
                   TextTable::num(s.throughputBytesPerCycle(cfg.flitBytes) /
                                      cfg.flitBytes, 2),
                   TextTable::num(s.avgLatencyCycles, 1),
                   TextTable::num(s.avgHopCount, 2),
                   formatRate(s.bandwidthBytesPerSec(cfg)),
                   TextTable::num(100.0 * s.injectionStalls /
                                      std::max<std::uint64_t>(
                                          1, s.injected +
                                                 s.injectionStalls), 1)});
        }
        t.print(std::cout);
    }

    // Core-to-LLC hotspot traffic: 8 LLC-slice nodes along the two
    // middle columns serve the surrounding cores.
    bench::banner("Core-to-LLC pattern: aggregate L2 bandwidth");
    cfg.bufferless = true;
    noc::MeshNoc m(cfg);
    std::vector<unsigned> slices = {5, 6, 9, 10, 13, 14, 17, 18};
    TextTable t("hotspot toward 8 LLC slices");
    t.header({"inject rate", "agg bandwidth", "avg lat (cy)",
              "max link util %"});
    for (double rate : {0.1, 0.2, 0.4, 0.6, 0.8}) {
        noc::HotspotTraffic traffic(rate, slices);
        const auto s = m.run(traffic, 20000);
        t.row({TextTable::num(rate, 2),
               formatRate(s.bandwidthBytesPerSec(cfg)),
               TextTable::num(s.avgLatencyCycles, 1),
               TextTable::num(100 * s.maxLinkUtilization, 1)});
    }
    t.print(std::cout);

    // The real floorplan co-locates LLC slices with the core
    // clusters, so most requests travel one or two hops; that is what
    // sustains the published 4 TB/s aggregate.
    TextTable nt("floorplanned: each core to its nearest LLC slice");
    nt.header({"inject rate", "agg bandwidth", "avg lat (cy)",
               "avg hops"});
    for (double rate : {0.4, 0.8, 1.0}) {
        noc::NearestSliceTraffic traffic(rate, slices, cfg.cols);
        const auto s = m.run(traffic, 20000);
        nt.row({TextTable::num(rate, 2),
                formatRate(s.bandwidthBytesPerSec(cfg)),
                TextTable::num(s.avgLatencyCycles, 1),
                TextTable::num(s.avgHopCount, 2)});
    }
    nt.print(std::cout);
    std::cout << "(paper: total throughput to L2 is 4 TB/s)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
