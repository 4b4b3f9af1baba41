/**
 * @file
 * Compiler ablation: operator fusion. The real tool-chain executes
 * normalization / activation / residual layers as vector passes
 * fused into the producing cube layer's eviction (the granularity of
 * the paper's per-operator charts); this bench measures what that
 * fusion is worth against a naive layer-at-a-time execution, per
 * network and core.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "compiler/fusion.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

namespace {

struct Sample
{
    Cycles cycles = 0;
    Bytes ext = 0;
};

Sample
run(const runtime::SimSession &session, const model::Network &net)
{
    Sample s;
    for (const auto &r : session.runInference(net)) {
        s.cycles += r.result.totalCycles;
        s.ext += r.result.extBytes();
    }
    return s;
}

} // anonymous namespace

int
main()
{
    bench::banner("Compiler ablation: operator fusion");
    TextTable t("fused vs layer-at-a-time");
    t.header({"network", "core", "layers", "fused layers", "cycle gain",
              "ext traffic saved %"});

    struct Case
    {
        arch::CoreVersion core;
        model::Network net;
    };
    const std::vector<Case> cases = {
        {arch::CoreVersion::Std,
         graph::toNetwork(graph::zoo::resnet50Graph(1))},
        {arch::CoreVersion::Lite,
         graph::toNetwork(graph::zoo::mobilenetV2Graph(1))},
        {arch::CoreVersion::Tiny,
         graph::toNetwork(graph::zoo::gestureNetGraph(1))},
        {arch::CoreVersion::Max, graph::toNetwork(graph::zoo::vgg16Graph(1))},
    };
    // Per-case work (fusion + two simulated runs) is independent;
    // run the cases through the pool and print in catalog order.
    struct Row
    {
        compiler::FusionReport report;
        Sample plain, opt;
    };
    const auto rows = runtime::parallelMap(cases, [](const Case &c) {
        runtime::SimSession session(arch::makeCoreConfig(c.core));
        Row r;
        const auto fused = compiler::fuseNetwork(c.net, &r.report);
        r.plain = run(session, c.net);
        r.opt = run(session, fused);
        return r;
    });
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        const Row &r = rows[i];
        t.row({c.net.name, arch::toString(c.core),
               TextTable::num(std::uint64_t(r.report.layersBefore)),
               TextTable::num(std::uint64_t(r.report.fusedLayers())),
               TextTable::num(double(r.plain.cycles) / r.opt.cycles, 2) +
                   "x",
               TextTable::num(100.0 * (1.0 - double(r.opt.ext) /
                                                 r.plain.ext), 1)});
    }
    t.print(std::cout);
    std::cout << "Fused post-operators never round-trip their "
                 "activations off-core: the traffic\nsaving is what "
                 "keeps the Fig. 9 bandwidth profile under the bus "
                 "budgets.\n";
    return 0;
}
