/**
 * @file
 * Tracer overhead bench: asserts the obs layer's zero-overhead
 * contract. The record sites stay in the binary even when tracing is
 * off (one relaxed atomic load + predictable branch each), and this
 * bench measures the end-to-end cost of that on the core-sim hot
 * loop:
 *
 *  - T_base: tracing never activated in this process;
 *  - T_on:   tracing active to a file (informational — this path is
 *            allowed to cost whatever buffering costs);
 *  - T_off:  after stop(), i.e. the disabled path again.
 *
 * The assertion is min-of-N T_off <= 1.05 x min-of-N T_base: if the
 * disabled path ever grows a lock, an allocation, or a cache-hostile
 * check, this bench fails (exit 1) and CI goes red. Min-of-N makes
 * the comparison robust to scheduler noise; the paper-table benches
 * depend on the simulator staying this fast.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"
#include "model/layer.hh"
#include "obs/tracer.hh"

using namespace ascend;

namespace {

/** Seconds to run @p iters simulations of @p prog. */
double
timeBlock(core::CoreSim &sim, const isa::Program &prog, int iters)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t acc = 0;
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i)
        acc += sim.run(prog).totalCycles;
    const auto t1 = clock::now();
    // Keep the accumulator observable so the loop cannot fold away.
    if (acc == 0)
        std::cerr << "";
    return std::chrono::duration<double>(t1 - t0).count();
}

double
minOfReps(core::CoreSim &sim, const isa::Program &prog, int iters,
          int reps)
{
    double best = timeBlock(sim, prog, iters);
    for (int r = 1; r < reps; ++r)
        best = std::min(best, timeBlock(sim, prog, iters));
    return best;
}

} // anonymous namespace

int
main()
{
    // Neutralize any ASCEND_TRACE inherited from the environment so
    // T_base really is the never-activated path.
    obs::Tracer::instance().stop();

    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    compiler::LayerCompiler lc(cfg);
    core::CoreSim sim(cfg);
    // Flattened, so every instruction is stepped through the record
    // sites whatever the tracing state.
    const auto prog =
        lc.compile(model::Layer::linear("gemm", 512, 512, 512)).flatten();

    const int iters = 200; // ~several ms per block
    const int reps = 11;

    minOfReps(sim, prog, iters, 3); // warm caches and frequency

    const double t_base = minOfReps(sim, prog, iters, reps);

    double t_on = 0;
    std::size_t spans = 0;
    if (obs::kTraceCompiledIn) {
        obs::Tracer::instance().start("bench_trace_overhead.json");
        t_on = minOfReps(sim, prog, iters, reps);
        spans = obs::Tracer::instance().spanCount();
        obs::Tracer::instance().stop();
        std::remove("bench_trace_overhead.json");
    }

    const double t_off = minOfReps(sim, prog, iters, reps);

    bench::banner("Tracer overhead (obs zero-overhead contract)");
    TextTable table("min-of-" + std::to_string(reps) + " block times, " +
                    std::to_string(iters) + " sims/block");
    table.header({"mode", "seconds", "vs base"});
    table.row({"base (never on)", TextTable::num(t_base, 4), "1.00"});
    if (obs::kTraceCompiledIn)
        table.row({"tracing on", TextTable::num(t_on, 4),
                   TextTable::num(t_on / t_base, 2)});
    table.row({"off after stop", TextTable::num(t_off, 4),
               TextTable::num(t_off / t_base, 2)});
    table.print(std::cout);
    if (obs::kTraceCompiledIn)
        std::cout << spans << " deduplicated spans recorded while on\n";

    const double limit = 1.05;
    if (t_off > t_base * limit) {
        std::cerr << "FAIL: disabled-tracing overhead "
                  << (t_off / t_base - 1.0) * 100.0 << "% exceeds "
                  << (limit - 1.0) * 100.0 << "% budget\n";
        return 1;
    }
    std::cout << "disabled-tracing overhead within "
              << (limit - 1.0) * 100.0 << "% budget\n";
    return 0;
}
