/**
 * @file
 * Quickstart: compile a small network for two Ascend cores and print
 * per-layer timing, cube/vector balance, and bandwidth statistics.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "obs/tracer.hh"
#include "runtime/sim_session.hh"

using namespace ascend;

namespace {

void
profileNetwork(const arch::CoreConfig &config, const model::Network &net)
{
    runtime::SimSession session(config);
    const auto runs = session.runInference(net);
    const auto groups = runtime::fusionGroups(runs);

    TextTable table(net.name + " on " + config.name);
    table.header({"operator", "cycles", "cube%", "vec%", "cube/vec",
                  "L1 rd bits/cy", "GFLOPs"});
    Cycles total = 0;
    for (const auto &g : groups) {
        total += g.totalCycles;
        table.row({g.name,
                   TextTable::num(std::uint64_t(g.totalCycles)),
                   TextTable::num(100.0 * g.cubeBusy / g.totalCycles, 1),
                   TextTable::num(100.0 * g.vectorBusy / g.totalCycles, 1),
                   TextTable::num(g.cubeVectorRatio(), 2),
                   TextTable::num(g.l1ReadBitsPerCycle(), 0),
                   TextTable::num(g.flops / 1e9, 3)});
    }
    table.print(std::cout);

    const double ms = double(total) / (config.clockGhz * 1e6);
    std::cout << net.name << ": " << total << " cycles = " << ms
              << " ms at " << config.clockGhz << " GHz\n\n";
}

} // anonymous namespace

int
main()
{
    // A small always-on CNN on the IoT-class core...
    profileNetwork(arch::makeCoreConfig(arch::CoreVersion::Tiny),
                   graph::toNetwork(graph::zoo::gestureNetGraph(1)));

    // ...and MobileNetV2 on the smartphone-class core.
    profileNetwork(arch::makeCoreConfig(arch::CoreVersion::Lite),
                   graph::toNetwork(graph::zoo::mobilenetV2Graph(1)));

    // Bonus: dump a Chrome trace of one convolution so the six-pipe
    // overlap (paper Fig. 3) can be inspected in chrome://tracing.
    if (!obs::kTraceCompiledIn) {
        std::cout << "no quickstart_trace.json: the tracer is compiled "
                     "out (ASCEND_OBS_TRACE=OFF)\n";
        return 0;
    }
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    compiler::LayerCompiler lc(cfg);
    core::CoreSim sim(cfg);
    obs::Tracer &tracer = obs::Tracer::instance();
    if (!tracer.stop()) // an ASCEND_TRACE trace ends here, written in full
        fatal("cannot write trace %s", tracer.path().c_str());
    tracer.start("quickstart_trace.json");
    sim.run(lc.compile(model::Layer::conv2d("conv", 1, 32, 56, 56, 64,
                                            3, 1, 1)));
    const std::size_t events = tracer.spanCount();
    if (!tracer.stop())
        fatal("cannot write quickstart_trace.json");
    std::cout << "wrote quickstart_trace.json (" << events
              << " events) - open in chrome://tracing\n";
    return 0;
}
