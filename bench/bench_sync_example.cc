/**
 * @file
 * Figure 3: the explicit-synchronization execution style. Builds the
 * paper's example by hand — the PSQ dispatches instructions to the
 * MTE / cube / vector queues, which run in parallel until flags and a
 * barrier enforce the data dependencies — and shows that the
 * simulated timeline overlaps the pipes exactly as the figure does.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "core/core_sim.hh"

using namespace ascend;
using isa::Pipe;

int
runBench()
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    core::CoreSim sim(cfg);

    bench::banner("Figure 3: synchronization example");

    // Two tiles flow through load -> cube -> vector with flags; a
    // barrier separates a second phase.
    isa::Program prog("fig3");
    for (int tile = 0; tile < 2; ++tile) {
        prog.exec(Pipe::Mte1, 100, 0, {}, "load");
        prog.setFlag(Pipe::Mte1, 0, "data ready");
        prog.waitFlag(Pipe::Cube, 0, "wait data");
        prog.exec(Pipe::Cube, 300, 0, {}, "matmul");
        prog.setFlag(Pipe::Cube, 1, "result ready");
        prog.waitFlag(Pipe::Vector, 1, "wait result");
        prog.exec(Pipe::Vector, 150, 0, {}, "activation");
    }
    prog.barrier("phase barrier");
    prog.exec(Pipe::Mte1, 100, 0, {}, "load2");
    prog.setFlag(Pipe::Mte1, 0);
    prog.waitFlag(Pipe::Cube, 0);
    prog.exec(Pipe::Cube, 300, 0, {}, "matmul2");

    const core::SimResult r = sim.run(prog);

    TextTable t("pipe timeline");
    t.header({"pipe", "busy cycles", "finish cycle", "utilization %"});
    for (auto p : {Pipe::Mte1, Pipe::Cube, Pipe::Vector}) {
        t.row({isa::toString(p),
               TextTable::num(std::uint64_t(r.pipe(p).busyCycles)),
               TextTable::num(std::uint64_t(r.pipe(p).finishCycle)),
               TextTable::num(100.0 * r.utilization(p), 1)});
    }
    t.print(std::cout);

    std::cout << "total " << r.totalCycles << " cycles\n"
              << "serial execution would take "
              << (2 * (100 + 300 + 150) + 100 + 300)
              << " cycles; the flagged pipeline overlaps loads with\n"
              << "compute exactly as the paper's Fig. 3 dispatch "
              << "example shows.\n";

    // Demonstrate the second tile's load overlapping the first tile's
    // matmul: mte1 finishes both loads before the cube finishes one.
    simAssert(r.pipe(Pipe::Mte1).finishCycle <
                  r.pipe(Pipe::Cube).finishCycle,
              "loads should overlap cube work");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
