/**
 * @file
 * Table 6: the memory wall and I/O wall of the Ascend 910.
 *
 * The paper anchors the table at the cube engine's raw operand
 * demand: 256 TFLOPS at ~8 bytes touched per FLOP when nothing is
 * reused = 2048 TB/s, then descends the hierarchy. This bench prints
 * that derivation from the configuration presets next to the paper's
 * ratios.
 *
 * Expected shape (paper): L1 ~1/10, LLC ~1/100, HBM ~1/2000, intra
 * server ~1/40000, inter server ~1/200000.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "cluster/collective.hh"
#include "soc/training_soc.hh"

using namespace ascend;

int
runBench()
{
    soc::TrainingSoc soc910;
    const auto &core = soc910.coreConfig();
    const auto &cfg = soc910.config();
    const unsigned cores = cfg.aiCores;
    const double ghz = core.clockGhz * 1e9;

    // Raw operand demand with zero reuse: two fp16 inputs plus the
    // fp32 accumulator read-modify-write per MAC = 12 bytes per MAC =
    // ~8 bytes per FLOP (the paper quotes 2048 TB/s for 256 TFLOPS,
    // i.e. exactly 8 B/FLOP).
    const double peak_flops = soc910.peakFlopsFp16();
    const double cube_demand = peak_flops * 8.0;

    const double l0 = cube_demand; // L0 is sized to feed the cube
    const double l1 = double(core.busABytesPerCycle +
                             core.busBBytesPerCycle +
                             core.busUbBytesPerCycle) * ghz * cores;
    const double llc = cfg.llcBandwidth;
    const double hbm = cfg.hbm.bandwidthBytesPerSec;

    cluster::ClusterConfig cl;
    const double intra =
        cl.server.hccsBytesPerSec + cl.server.pcieBytesPerSec;
    const double inter = cl.netBytesPerSec;

    bench::banner("Table 6: memory wall and I/O wall (Ascend 910)");
    TextTable t("modelled | paper ratio");
    t.header({"level", "bandwidth", "ratio to cube", "paper ratio"});
    auto row = [&](const char *name, double bw, const char *paper) {
        t.row({name, formatRate(bw),
               "1/" + TextTable::num(std::uint64_t(cube_demand / bw)),
               paper});
    };
    t.row({"Cube engine demand (256 TFLOPS x 8 B/FLOP)",
           formatRate(cube_demand), "1", "1 (2048 TB/s)"});
    row("L0 memory", l0, "1/1");
    row("L1 memory (A+B+UB buses x 32 cores)", l1, "1/10");
    row("LLC memory", llc, "1/100 (expected), 1/512 (actual 4 TB/s)");
    row("HBM memory", hbm, "1/2000");
    row("Intra AI server (HCCS+PCIe)", intra, "1/40000");
    row("Inter AI server (100 Gbps)", inter, "1/200000");
    t.print(std::cout);

    std::cout << "Each level down relies on data reuse in the level "
                 "above to bridge roughly\none order of magnitude "
                 "(Section 4.1); the multi-layer hierarchy is what\n"
                 "closes the >2000x gap between cube demand and HBM.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
