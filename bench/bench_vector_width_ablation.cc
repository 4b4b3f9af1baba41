/**
 * @file
 * Section 2.4 ablation: resource matching of the vector unit.
 *
 * The paper's configuration principle sizes the vector unit so that
 * vector time hides under cube time for the target workloads. This
 * ablation sweeps the vector width for each core's flagship network
 * and reports end-to-end cycles and the fraction of operators whose
 * cube/vector ratio exceeds 1 — showing why the shipped widths
 * (256 B for Max-class, 128 B for Lite, 32 B for Tiny) sit where
 * they do.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

namespace {

void
sweepWidths(arch::CoreVersion version, const model::Network &net,
            Bytes shipped_width)
{
    auto base = arch::makeCoreConfig(version);
    bench::banner(std::string("Vector width sweep: ") + net.name +
                  " on " + base.name);
    TextTable t("ablation");
    t.header({"vector width", "total cycles", "slowdown vs widest",
              "ops with ratio > 1 %", "shipped?"});

    // Each width is an independent config: sweep the points through
    // the pool and print rows in width order afterwards.
    const std::vector<Bytes> widths = {shipped_width / 4,
                                       shipped_width / 2, shipped_width,
                                       shipped_width * 2,
                                       shipped_width * 4};
    struct Point
    {
        Cycles total;
        double abovePct;
    };
    const auto points = runtime::parallelMap(widths, [&](Bytes w) {
        auto cfg = base;
        cfg.vectorWidthBytes = w;
        runtime::SimSession session(cfg);
        const auto runs = session.runInference(net);
        const auto groups = runtime::fusionGroups(runs);
        unsigned n = 0;
        for (const auto &g : groups)
            if (g.cubeVectorRatio() > 1.0)
                ++n;
        return Point{runtime::totalCycles(runs),
                     groups.empty() ? 0 : 100.0 * n / groups.size()};
    });
    const Cycles best = points.back().total;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        t.row({TextTable::num(std::uint64_t(widths[i])) + " B",
               TextTable::num(std::uint64_t(points[i].total)),
               TextTable::num(double(points[i].total) / double(best), 2) +
                   "x",
               TextTable::num(points[i].abovePct, 0),
               widths[i] == shipped_width ? "<= shipped" : ""});
    }
    t.print(std::cout);
}

} // anonymous namespace

int
runBench()
{
    sweepWidths(arch::CoreVersion::Max,
                graph::toNetwork(graph::zoo::bertGraph(
                    "bert_large_2l", 1, 384, 1024, 2, 16, 4096)),
                256);
    sweepWidths(arch::CoreVersion::Lite,
                graph::toNetwork(graph::zoo::mobilenetV2Graph(1)), 128);
    sweepWidths(arch::CoreVersion::Tiny,
                graph::toNetwork(graph::zoo::gestureNetGraph(1)), 32);

    std::cout << "\nThe shipped width is the knee: halving it inflates "
                 "end-to-end cycles because\nvector work stops hiding "
                 "under cube work, while doubling it buys little.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
