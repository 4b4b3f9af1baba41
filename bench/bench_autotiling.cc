/**
 * @file
 * Section 5.1: Auto Tiling. The production stack searches the
 * legitimate mapping space (with RL); this bench runs the exhaustive
 * search on representative layers of each core's flagship network
 * and reports how much the searched tiling gains over the one-shot
 * heuristic — plus the Section 2.3 design-space sweep over L0 sizes
 * showing the shipped configuration at the knee.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "compiler/autotiler.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

int
main()
{
    bench::banner("Section 5.1: Auto Tiling search vs heuristic");
    struct Case
    {
        arch::CoreVersion core;
        model::Layer layer;
    };
    const std::vector<Case> cases = {
        {arch::CoreVersion::Max,
         model::Layer::linear("bert.ffn1", 384, 1024, 4096)},
        {arch::CoreVersion::Max,
         model::Layer::conv2d("res3.conv2", 1, 128, 28, 28, 128,
                              3, 1, 1)},
        {arch::CoreVersion::Lite,
         model::Layer::conv2d("mnv2.expand", 1, 24, 56, 56, 144,
                              1, 1, 0)},
        {arch::CoreVersion::Tiny,
         model::Layer::conv2d("gesture.conv3", 1, 16, 48, 48, 32,
                              3, 2, 1, DataType::Int8)},
    };
    // Each exhaustive search is independent (its own AutoTiler);
    // run them through the pool and print rows in case order.
    const auto results =
        runtime::parallelMap(cases, [](const Case &c) {
            compiler::AutoTiler tiler(arch::makeCoreConfig(c.core));
            return tiler.search(c.layer);
        });
    TextTable t("per-layer search");
    t.header({"core", "layer", "heuristic tile", "cycles", "best tile",
              "cycles", "gain", "tried"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        const auto &r = results[i];
        auto fmt = [](const compiler::GemmTile &g) {
            return std::to_string(g.mt) + "x" + std::to_string(g.kt) +
                   "x" + std::to_string(g.nt);
        };
        t.row({arch::toString(c.core), c.layer.name, fmt(r.heuristic),
               TextTable::num(std::uint64_t(r.heuristicCycles)),
               fmt(r.best), TextTable::num(std::uint64_t(r.bestCycles)),
               TextTable::num(r.speedupOverHeuristic(), 2) + "x",
               TextTable::num(std::uint64_t(r.candidatesTried))});
    }
    t.print(std::cout);
    std::cout << "The searched mapping never loses to the heuristic "
                 "(it includes it) and recovers\nthe cases where the "
                 "one-shot rule picks a poor loop order.\n";

    // Section 2.3: micro-architecture exploration — L0 size sweep,
    // one independent core config per point.
    bench::banner("Section 2.3: design-space sweep (L0 capacity, "
                  "ResNet50 on Ascend)");
    TextTable d("L0A/L0B capacity sweep");
    d.header({"L0A/L0B (KiB)", "total cycles", "vs shipped 64 KiB"});
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(1));
    const std::vector<Bytes> kibs = {16, 32, 64, 128, 256};
    const auto cycles = runtime::parallelMap(kibs, [&](Bytes kib) {
        auto cfg = arch::makeCoreConfig(arch::CoreVersion::Std);
        cfg.l0aBytes = cfg.l0bBytes = kib * kKiB;
        runtime::SimSession session(cfg);
        return runtime::totalCycles(session.runInference(net));
    });
    const Cycles shipped = cycles[2]; // the 64 KiB point
    for (std::size_t i = 0; i < kibs.size(); ++i) {
        d.row({TextTable::num(std::uint64_t(kibs[i])),
               TextTable::num(std::uint64_t(cycles[i])),
               TextTable::num(double(cycles[i]) / shipped, 3) + "x"});
    }
    d.print(std::cout);
    std::cout << "Below the shipped 64 KiB, tiles shrink and "
                 "per-instruction overheads grow; above\nit, returns "
                 "diminish - the Section 2.3 resource-balance "
                 "principle.\n";
    return 0;
}
