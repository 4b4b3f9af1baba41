/**
 * @file
 * Table 4: area/density benefit of a large cube versus many small
 * cubes at 12 nm — one 16x16x16 cube against eight 4x4x4 cubes (the
 * GPU-SM-like organization) — plus the paper's caveat that a 32x32x32
 * cube loses MAC utilization on real layer shapes.
 *
 * Expected shape (paper): going from 4^3 x 8 to 16^3 raises
 * throughput ~4.7x while area grows only ~2.5x (330 -> 600
 * GFLOPS/mm^2), but 32^3 is *worse* in utilization.
 */

#include <iostream>

#include "arch/unit_model.hh"
#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

namespace {

/** Average cube MAC utilization of a network on a given cube shape. */
double
cubeUtilization(const arch::CubeShape &shape, const model::Network &net)
{
    auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    cfg.cube = shape;
    // Scale L0 capacity with the cube so the comparison isolates the
    // utilization effect of the fractal shape itself.
    const double scale =
        double(shape.macsPerCycle()) / (16.0 * 16.0 * 16.0);
    cfg.l0aBytes = Bytes(cfg.l0aBytes * std::max(scale, 0.25));
    cfg.l0bBytes = Bytes(cfg.l0bBytes * std::max(scale, 0.25));
    cfg.l0cBytes = Bytes(cfg.l0cBytes * std::max(scale, 0.25));
    cfg.busABytesPerCycle = Bytes(cfg.busABytesPerCycle * scale) + 1;
    cfg.busBBytesPerCycle = Bytes(cfg.busBBytesPerCycle * scale) + 1;

    runtime::SimSession session(cfg);
    Flops flops = 0;
    Cycles cube_busy = 0;
    for (const auto &run : session.runInference(net)) {
        flops += run.result.totalFlops;
        cube_busy += run.result.pipe(isa::Pipe::Cube).busyCycles;
    }
    const double peak =
        double(shape.flopsPerCycle()) * double(cube_busy);
    return peak > 0 ? double(flops) / peak : 0.0;
}

} // anonymous namespace

int
runBench()
{
    using arch::TechNode;
    const double ghz_small = 1.66; // GPU-class clock for the 4^3 SM
    const double ghz_big = 1.0;

    const auto small = arch::modelCube({4, 4, 4}, ghz_small, TechNode::N12);
    const auto big = arch::modelCube({16, 16, 16}, ghz_big, TechNode::N12);

    bench::banner("Table 4: area/density benefits of the cube units "
                  "(12 nm)");
    TextTable table("modelled | paper");
    table.header({"metric", "4x4x4 x8", "16x16x16", "paper 4^3x8",
                  "paper 16^3"});
    table.row({"Core area (mm2)",
               TextTable::num(8 * small.areaMm2, 1),
               TextTable::num(big.areaMm2, 1), "5.2", "13.2"});
    table.row({"FP16 perf (TFLOPS)",
               TextTable::num(8 * small.peakFlops / 1e12, 2),
               TextTable::num(big.peakFlops / 1e12, 2), "1.7", "8"});
    table.row({"Perf/Area (GFLOPS/mm2)",
               TextTable::num(small.peakFlops * 8 / (8 * small.areaMm2) /
                              1e9, 0),
               TextTable::num(big.peakFlops / big.areaMm2 / 1e9, 0),
               "330", "600"});
    table.print(std::cout);

    // The 32^3 caveat: MAC utilization across real networks. Each
    // (cube dim, network) cell is an independent simulation; run the
    // whole grid through the pool, then print in fixed order.
    bench::banner("Section 2.1 caveat: MAC utilization vs cube size");
    TextTable util("cube MAC utilization per network");
    util.header({"cube", "ResNet50 b=1", "MobileNetV2 b=1",
                 "BERT-Large 2l b=1"});
    const std::vector<model::Network> nets = {
        graph::toNetwork(graph::zoo::resnet50Graph(1)),
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1)),
        graph::toNetwork(
            graph::zoo::bertGraph("bert2", 1, 384, 1024, 2, 16, 4096))};
    const std::vector<unsigned> dims = {8, 16, 32};
    std::vector<std::pair<unsigned, std::size_t>> cells;
    for (unsigned dim : dims)
        for (std::size_t n = 0; n < nets.size(); ++n)
            cells.emplace_back(dim, n);
    const auto utils = runtime::parallelMap(
        cells, [&](const std::pair<unsigned, std::size_t> &cell) {
            const arch::CubeShape shape{cell.first, cell.first,
                                        cell.first};
            return cubeUtilization(shape, nets[cell.second]);
        });
    for (std::size_t d = 0; d < dims.size(); ++d) {
        const std::size_t base = d * nets.size();
        util.row({std::to_string(dims[d]) + "^3",
                  TextTable::num(100 * utils[base + 0], 1),
                  TextTable::num(100 * utils[base + 1], 1),
                  TextTable::num(100 * utils[base + 2], 1)});
    }
    util.print(std::cout);
    std::cout << "(paper: 32^3 becomes inefficient due to lower MAC "
                 "utilization)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
