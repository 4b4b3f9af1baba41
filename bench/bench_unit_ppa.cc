/**
 * @file
 * Table 3: PPA comparison among the scalar, vector and cube computing
 * units at 7 nm, from the calibrated analytical unit model.
 *
 * Expected shape (paper): the cube improves both perf/W and perf/mm^2
 * by about one order of magnitude over the vector unit.
 */

#include <iostream>

#include "arch/unit_model.hh"
#include "bench/bench_util.hh"

using namespace ascend;

int
runBench()
{
    using arch::TechNode;
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    const auto scalar = arch::modelScalar(cfg.clockGhz, TechNode::N7);
    const auto vec = arch::modelVector(cfg.vectorWidthBytes, cfg.clockGhz,
                                       TechNode::N7);
    const auto cube = arch::modelCube(cfg.cube, cfg.clockGhz, TechNode::N7);

    bench::banner("Table 3: comparison among computing units (7 nm)");
    TextTable table("modelled | paper");
    table.header({"metric", "Scalar", "Vector", "Cube", "paper V", "paper C"});
    table.row({"Performance (GFLOPS)",
               TextTable::num(scalar.peakFlops / 1e9, 0),
               TextTable::num(vec.peakFlops / 1e9, 0),
               TextTable::num(cube.peakFlops / 1e9, 0), "256", "8000"});
    table.row({"Power (W)", "-",
               TextTable::num(vec.powerW, 2),
               TextTable::num(cube.powerW, 2), "0.46", "3.13"});
    table.row({"Area (mm2)",
               TextTable::num(scalar.areaMm2, 2),
               TextTable::num(vec.areaMm2, 2),
               TextTable::num(cube.areaMm2, 2), "0.70", "2.57"});
    table.row({"Perf/Power (TFLOPS/W)", "-",
               TextTable::num(vec.perfPerWatt() / 1e12, 2),
               TextTable::num(cube.perfPerWatt() / 1e12, 2),
               "0.56", "2.56"});
    table.row({"Perf/Area (TFLOPS/mm2)",
               TextTable::num(scalar.perfPerArea() / 1e12, 2),
               TextTable::num(vec.perfPerArea() / 1e12, 2),
               TextTable::num(cube.perfPerArea() / 1e12, 2),
               "0.36", "3.11"});
    table.print(std::cout);

    std::cout << "cube/vector perf-per-area advantage: "
              << TextTable::num(cube.perfPerArea() / vec.perfPerArea(), 1)
              << "x (paper: ~8.6x)\n"
              << "cube/vector perf-per-watt advantage: "
              << TextTable::num(cube.perfPerWatt() / vec.perfPerWatt(), 1)
              << "x (paper: ~4.6x)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
