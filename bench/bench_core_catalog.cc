/**
 * @file
 * Tables 1, 2, 5 and 10: the core lineup, the operation-to-unit
 * mapping, the architecture design parameters, and the published
 * business numbers. These are configuration tables: the bench prints
 * them from the CoreConfig presets so any drift between the code and
 * the paper's design points is immediately visible.
 */

#include <iostream>

#include "arch/unit_model.hh"
#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

int
main()
{
    bench::banner("Table 1: Ascend cores, applications, networks");
    TextTable t1;
    t1.header({"core", "inf/tra", "applications", "typical networks"});
    t1.row({"Ascend-Tiny", "Inference", "IoT and smart sensors",
            "face/gesture detection"});
    t1.row({"Ascend-Lite", "Inference", "IP cameras, smartphones",
            "MobileNet, ISP NNs"});
    t1.row({"Ascend-Mini", "Inference", "drones, robots, embedded AI",
            "ResNet, VGG"});
    t1.row({"Ascend", "Inf+Tra", "autonomous driving, smart city, cloud",
            "MaskRCNN, Siamese, Pointsnet"});
    t1.row({"Ascend-Max", "Tra+Inf", "HPC AI, cloud training",
            "BERT, ResNet, Wide&Deep"});
    t1.print(std::cout);

    bench::banner("Table 2: operations per computing unit");
    TextTable t2;
    t2.header({"unit", "typical operations", "ISA pipe"});
    t2.row({"Scalar", "control, scalar computation", "scalar"});
    t2.row({"Vector", "normalize, activation, format transfer, CV ops",
            "vector"});
    t2.row({"Cube", "convolution, FC, MatMul", "cube"});
    t2.print(std::cout);

    bench::banner("Table 5: key architecture design parameters");
    TextTable t5;
    t5.header({"core", "clock", "cube (fp16-eq)", "FLOPs/cy", "vector",
               "busA GB/s", "busB GB/s", "busUB GB/s", "LLC GB/s"});
    for (auto v : {arch::CoreVersion::Max, arch::CoreVersion::Std,
                   arch::CoreVersion::Mini, arch::CoreVersion::Lite,
                   arch::CoreVersion::Tiny}) {
        const auto c = arch::makeCoreConfig(v);
        auto gbps = [&](Bytes per_cycle) {
            return TextTable::num(double(per_cycle) * c.clockGhz, 0);
        };
        t5.row({c.name, TextTable::num(c.clockGhz, 2) + " GHz",
                std::to_string(c.cube.m0) + "x" +
                    std::to_string(c.cube.k0) + "x" +
                    std::to_string(c.cube.n0),
                TextTable::num(std::uint64_t(c.cube.flopsPerCycle())),
                TextTable::num(std::uint64_t(c.vectorWidthBytes)) + " B",
                gbps(c.busABytesPerCycle), gbps(c.busBBytesPerCycle),
                gbps(c.busUbBytesPerCycle), gbps(c.busExtBytesPerCycle)});
    }
    t5.print(std::cout);
    std::cout << "(paper: 8192 FLOPS/cy + 256 B for Max/Ascend/Mini, "
                 "2048 + 128 B for Lite,\n 1024 int8 + 32 B for Tiny; "
                 "A 4 TB/s, B/UB 2 TB/s; LLC 94/111/96/38.4 GB/s)\n";

    bench::banner("Modelled core area per design point (7 nm)");
    TextTable ta;
    ta.header({"core", "area mm2 (modelled)"});
    for (auto v : {arch::CoreVersion::Max, arch::CoreVersion::Lite,
                   arch::CoreVersion::Tiny}) {
        const auto c = arch::makeCoreConfig(v);
        ta.row({c.name,
                TextTable::num(arch::modelCoreAreaMm2(c,
                                                      arch::TechNode::N7),
                               2)});
    }
    ta.print(std::cout);

    // Table 1 sanity check: actually run each core's typical network
    // through the cycle-level simulator. Five independent design
    // points, so the sweep goes through the pool; rows print in
    // catalog order from the index-stable results.
    bench::banner("Table 1 cross-check: flagship network per core "
                  "(batch 1, simulated)");
    struct Flagship
    {
        arch::CoreVersion core;
        model::Network net;
    };
    const std::vector<Flagship> flagships = {
        {arch::CoreVersion::Max,
         graph::toNetwork(graph::zoo::bertBaseGraph(1, 128))},
        {arch::CoreVersion::Std, graph::zoo::siameseTracker(1)},
        {arch::CoreVersion::Mini,
         graph::toNetwork(graph::zoo::resnet50Graph(1))},
        {arch::CoreVersion::Lite,
         graph::toNetwork(graph::zoo::mobilenetV2Graph(1))},
        {arch::CoreVersion::Tiny,
         graph::toNetwork(graph::zoo::gestureNetGraph(1))},
    };
    struct FlagshipRun
    {
        std::string coreName;
        double clockGhz;
        Flops peakPerCycle;
        Cycles total;
        Flops flops;
    };
    const auto sims =
        runtime::parallelMap(flagships, [](const Flagship &f) {
            const auto cfg = arch::makeCoreConfig(f.core);
            runtime::SimSession session(cfg);
            const auto runs = session.runInference(f.net);
            Flops flops = 0;
            for (const auto &run : runs)
                flops += run.result.totalFlops;
            return FlagshipRun{cfg.name, cfg.clockGhz,
                               cfg.cube.flopsPerCycle(),
                               runtime::totalCycles(runs), flops};
        });
    TextTable tf;
    tf.header({"core", "network", "total cycles", "latency (ms)",
               "cube util %"});
    for (std::size_t i = 0; i < flagships.size(); ++i) {
        const auto &s = sims[i];
        const double ms =
            double(s.total) / (s.clockGhz * 1e9) * 1e3;
        const double util =
            s.total ? double(s.flops) /
                          (double(s.peakPerCycle) * double(s.total))
                    : 0.0;
        tf.row({s.coreName, flagships[i].net.name,
                TextTable::num(std::uint64_t(s.total)),
                TextTable::num(ms, 2),
                TextTable::num(100 * util, 1)});
    }
    tf.print(std::cout);
    std::cout << "(Each core meets its Table 1 deployment class: "
                 "sub-ms always-on inference on\nTiny, mobile vision "
                 "on Lite, datacenter-class throughput on Max.)\n";

    bench::banner("Table 10: business numbers (as published, 2020)");
    TextTable t10;
    t10.header({"product", "release", "quantity"});
    t10.row({"Ascend 910", "2019", "~0.2 M"});
    t10.row({"Mobile SoCs with Ascend cores", "2019", "> 100 M"});
    t10.row({"Ascend 610", "2020", "n/a"});
    t10.row({"Ascend 310", "2018", "~1 M"});
    t10.print(std::cout);
    return 0;
}
