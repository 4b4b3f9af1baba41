/**
 * @file
 * Table 8: mobile AI core PPA — the Kirin 990 5G NPU (2x Ascend-Lite
 * + 1x Ascend-Tiny) against the published competitor numbers, with
 * our modelled peak TOPS, TOPS/W, NPU area and MobileNetV2 batch-1
 * latency.
 *
 * Expected shape (paper): ~6.9 TOPS peak, ~4.6 TOPS/W, ~4 mm^2, and
 * the fastest MobileNetV2 single-image latency of the field (5.2 ms).
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "compiler/layer_compiler.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "isa/encoding.hh"
#include "soc/dvfs.hh"
#include "soc/mobile_soc.hh"

using namespace ascend;

int
runBench()
{
    soc::MobileSoc kirin;

    const auto mobilenet =
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    const double mn_ms = kirin.liteLatencySeconds(mobilenet) * 1e3;
    const auto gesture = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    const double gesture_ms = kirin.tinyLatencySeconds(gesture) * 1e3;

    bench::banner("Table 8: mobile AI core PPA");
    TextTable t("modelled Kirin 990-5G | published field");
    t.header({"metric", "modelled", "paper Kirin", "SD865", "Dim1000",
              "Exynos9820"});
    t.row({"Peak perf (TOPS int8)",
           TextTable::num(kirin.peakOpsInt8() / 1e12, 2), "6.88", "8",
           "4.5", "2.1-6.9"});
    t.row({"Power efficiency (TOPS/W)",
           TextTable::num(kirin.powerEfficiency(), 2), "4.6", "-",
           "3.4-6.8", "3.6-11.5"});
    t.row({"NPU area (mm2, 7nm)",
           TextTable::num(kirin.npuAreaMm2(), 2), "4", "2.4*", "2.68*",
           "5.5 (8nm)"});
    t.row({"MobileNetV2 (ms/image, fp16)",
           TextTable::num(mn_ms, 1), "5.2", "15", "7", "15"});
    t.print(std::cout);

    std::cout << "Always-on gesture NN on Ascend-Tiny: "
              << TextTable::num(gesture_ms, 3) << " ms/frame at ~"
              << TextTable::num(kirin.config().tinyTypicalWatts * 1e3, 0)
              << " mW budget\n";

    // Big-little concurrency (Section 3.2): photo-scene detection on
    // the Lite pair while the always-on net keeps running on Tiny.
    const double makespan =
        kirin.bigLittleMakespan(
            graph::toNetwork(graph::zoo::mobilenetV2Graph(2)), gesture) *
        1e3;
    std::cout << "Big-little: MobileNetV2 b=2 on 2x Lite + gesture on "
                 "Tiny completes in "
              << TextTable::num(makespan, 1) << " ms\n";

    // DVFS (Section 3.2): "the working voltage can change dynamically
    // according to real-time workload intensity."
    bench::banner("Section 3.2: DVFS ladder for MobileNetV2 b=1");
    const auto table = soc::DvfsTable::mobileNpu();
    TextTable d("operating points");
    d.header({"point", "freq (GHz)", "latency (ms)", "rel. energy",
              "rel. power"});
    for (const auto &opp : table.points()) {
        d.row({opp.name, TextTable::num(opp.freqGhz, 2),
               TextTable::num(table.latencyAt(opp, mn_ms / 1e3) * 1e3, 1),
               TextTable::num(table.relativeEnergyAt(opp), 2),
               TextTable::num(opp.relativePower(table.nominal()), 2)});
    }
    d.print(std::cout);
    const auto &pick_30fps = table.pick(mn_ms / 1e3, 1.0 / 30.0);
    std::cout << "governor pick for a 30 fps deadline: " << pick_30fps.name
              << " ("
              << TextTable::num(100 * (1 - table.relativeEnergyAt(
                                               pick_30fps)), 0)
              << "% energy saved vs standard)\n";

    // Instruction compression (Section 3.2): "used in the Ascend-Lite
    // core to reduce the bandwidth pressure on the NoC."
    bench::banner("Section 3.2: instruction compression on Ascend-Lite");
    compiler::LayerCompiler lc(kirin.liteConfig());
    TextTable ic("instruction-stream sizes per operator");
    ic.header({"operator", "instrs", "raw", "compressed", "ratio"});
    Bytes raw_total = 0, comp_total = 0;
    for (const auto &layer :
         {model::Layer::conv2d("block2.expand", 1, 16, 112, 112, 96,
                               1, 1, 0),
          model::Layer::depthwiseConv2d("block2.dw", 1, 96, 112, 112,
                                        3, 2, 1),
          model::Layer::linear("fc", 1, 1280, 1000)}) {
        const auto prog = lc.compile(layer);
        const Bytes raw = isa::encodedBytes(prog);
        const Bytes comp = isa::compressedBytes(prog);
        raw_total += raw;
        comp_total += comp;
        ic.row({layer.name, TextTable::num(std::uint64_t(prog.size())),
                formatBytes(raw), formatBytes(comp),
                TextTable::num(double(comp) / raw, 2)});
    }
    ic.print(std::cout);
    std::cout << "aggregate NoC instruction-fetch traffic reduced "
              << TextTable::num(double(raw_total) / comp_total, 1)
              << "x by the shape-dictionary compressor\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
