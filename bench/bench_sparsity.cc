/**
 * @file
 * Section 3.2 ablation: sparsity support. "The core is optimized for
 * structured sparsity in DNN models. Thus, the computing power
 * consumption can be further reduced under (general) sparsity."
 *
 * The bench sweeps weight density for ResNet50 on the Ascend-Lite
 * core, comparing unstructured pruning (ZVC compression: bandwidth
 * and storage savings only) against structured pruning (which also
 * skips cube compute), and reports cycle, traffic and energy-proxy
 * reductions.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "core/sparsity.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

namespace {

struct Sample
{
    Cycles cycles;
    Bytes extWeights;
    Cycles cubeBusy;
};

Sample
run(double density, bool structured)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    compiler::CompileOptions options;
    options.sparsity.weightDensity = density;
    options.sparsity.structured = structured;
    runtime::SimSession session(cfg, options);
    const auto runs = session.runInference(
        graph::toNetwork(graph::zoo::resnet50Graph(1)));
    Sample s{0, 0, 0};
    for (const auto &r : runs) {
        s.cycles += r.result.totalCycles;
        s.extWeights += r.result.bus(isa::Bus::ExtB);
        s.cubeBusy += r.result.pipe(isa::Pipe::Cube).busyCycles;
    }
    return s;
}

} // anonymous namespace

int
runBench()
{
    bench::banner("Section 3.2 ablation: sparsity on Ascend-Lite "
                  "(ResNet50 b=1)");

    // One point per (density, mode); dense first. Every point is an
    // independent compile + simulation, so the sweep runs through the
    // pool and the table prints from the index-stable results.
    const std::vector<std::pair<double, bool>> points = {
        {1.0, false}, {0.75, false}, {0.75, true}, {0.5, false},
        {0.5, true},  {0.25, false}, {0.25, true}};
    const auto samples = runtime::parallelMap(
        points, [](const std::pair<double, bool> &p) {
            return run(p.first, p.second);
        });
    const Sample &dense = samples.front();

    TextTable t("weight-density sweep");
    t.header({"density", "mode", "cycles", "speedup", "weight traffic",
              "traffic saved %", "cube busy saved %"});
    t.row({"1.00", "dense", TextTable::num(std::uint64_t(dense.cycles)),
           "1.00x", formatBytes(dense.extWeights), "0.0", "0.0"});
    for (std::size_t i = 1; i < points.size(); ++i) {
        const Sample &s = samples[i];
        t.row({TextTable::num(points[i].first, 2),
               points[i].second ? "structured (N:M)"
                                : "unstructured (ZVC)",
               TextTable::num(std::uint64_t(s.cycles)),
               TextTable::num(double(dense.cycles) / s.cycles, 2) + "x",
               formatBytes(s.extWeights),
               TextTable::num(100.0 * (1.0 - double(s.extWeights) /
                                                 dense.extWeights), 1),
               TextTable::num(100.0 * (1.0 - double(s.cubeBusy) /
                                                 dense.cubeBusy), 1)});
    }
    t.print(std::cout);

    std::cout << "ZVC compression ratio at density 0.5 (fp16): "
              << TextTable::num(core::Zvc::ratio(DataType::Fp16, 0.5), 2)
              << "; structured 2:4 pruning additionally halves cube "
                 "time\n(the paper's 'computing power consumption can "
                 "be further reduced under sparsity').\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
