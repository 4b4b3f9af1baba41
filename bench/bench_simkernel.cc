/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: core
 * scheduling throughput, compiler lowering speed, LLC access rate,
 * chip-sim event rate, mesh-NoC cycle rate, whole-graph cache hits
 * and the fleet serving loop under overload. These guard the
 * simulator's own performance (the table/figure benches above depend
 * on it staying fast enough to sweep).
 */

#include <set>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"
#include "graph/decoder.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "memory/llc.hh"
#include "noc/mesh.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "serving/fleet.hh"
#include "soc/chip_sim.hh"

using namespace ascend;

namespace {

/** Simulate a 1024^3 GEMM; items are its flattened instructions. */
void
simulateGemm(benchmark::State &state, bool flatten)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    compiler::LayerCompiler lc(cfg);
    core::CoreSim sim(cfg);
    const auto layer = model::Layer::linear("gemm", 1024, 1024, 1024);
    const auto compiled = lc.compile(layer);
    const auto prog = flatten ? compiled.flatten() : compiled;
    for (auto _ : state) {
        auto r = sim.run(prog);
        benchmark::DoNotOptimize(r.totalCycles);
    }
    state.SetItemsProcessed(state.iterations() * prog.size());
}

/** The per-instruction kernel: every instruction stepped. */
void
BM_CoreSimGemm(benchmark::State &state)
{
    simulateGemm(state, true);
}
BENCHMARK(BM_CoreSimGemm);

/** The compiled, loop-structured program, steady trips extrapolated. */
void
BM_CoreSimGemmFastForward(benchmark::State &state)
{
    simulateGemm(state, false);
}
BENCHMARK(BM_CoreSimGemmFastForward);

/**
 * Every distinct layer of the seven networks of the perf benchmark's
 * dse-exact workload, compiled at the Std preset; items are flattened
 * instructions, and `stepped` counts those simulated one by one per
 * iteration. Many of these blocks take dozens of trips to settle,
 * which the GEMM above, settled within a few, does not show.
 */
void
BM_CoreSimDseLayers(benchmark::State &state)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Std);
    compiler::LayerCompiler lc(cfg);
    core::CoreSim sim(cfg);
    graph::DecoderConfig dec;
    graph::DecoderConfig dec8;
    dec8.batch = 8;
    const std::vector<graph::Graph> nets = {
        graph::zoo::resnet50Graph(1),    graph::zoo::resnet50Graph(16),
        graph::zoo::mobilenetV2Graph(1), graph::zoo::bertBaseGraph(1, 128),
        graph::zoo::bertBaseGraph(4, 384), graph::prefillGraph(dec, 512),
        graph::decodeGraph(dec8, 2048)};
    std::vector<isa::Program> progs;
    std::uint64_t flat = 0;
    for (const graph::Graph &g : nets) {
        std::set<std::string> seen;
        for (const model::Layer &l : graph::toNetwork(g).layers)
            if (seen.insert(runtime::fingerprint(l)).second) {
                progs.push_back(lc.compile(l));
                flat += progs.back().size();
            }
    }
    core::RunStats stats;
    for (auto _ : state)
        for (const isa::Program &p : progs) {
            auto r = sim.run(p, &stats);
            benchmark::DoNotOptimize(r.totalCycles);
        }
    state.SetItemsProcessed(state.iterations() * flat);
    state.counters["stepped"] = benchmark::Counter(
        double(stats.steppedInstrs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CoreSimDseLayers);

void
BM_CompileResnetLayer(benchmark::State &state)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    compiler::LayerCompiler lc(cfg);
    const auto layer =
        model::Layer::conv2d("c", 1, 256, 14, 14, 256, 3, 1, 1);
    std::size_t instrs = 0;
    for (auto _ : state) {
        auto prog = lc.compile(layer);
        instrs = prog.size();
        benchmark::DoNotOptimize(instrs);
    }
    state.SetItemsProcessed(state.iterations() * instrs);
}
BENCHMARK(BM_CompileResnetLayer);

void
BM_ProfileGestureNet(benchmark::State &state)
{
    // Private cold cache so the measurement covers the full
    // compile + simulate path, not the memo hit.
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Tiny), {},
        std::make_shared<runtime::SimCache>());
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    for (auto _ : state) {
        session.cache().clear();
        auto runs = session.runInference(net);
        benchmark::DoNotOptimize(runs.size());
    }
}
BENCHMARK(BM_ProfileGestureNet);

void
BM_ProfileGestureNetCached(benchmark::State &state)
{
    // Warm-cache counterpart: all layer results come from the memo.
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Tiny), {},
        std::make_shared<runtime::SimCache>());
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    auto warm = session.runInference(net);
    benchmark::DoNotOptimize(warm.size());
    for (auto _ : state) {
        auto runs = session.runInference(net);
        benchmark::DoNotOptimize(runs.size());
    }
}
BENCHMARK(BM_ProfileGestureNetCached);

/**
 * graph::graphResult on a warm session: every query is a whole-graph
 * cache hit, so its cost is building the graph key and one lookup.
 * Items are queries.
 */
void
BM_GraphResultHit(benchmark::State &state, graph::Graph (*build)())
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Max), {},
        std::make_shared<runtime::SimCache>(), {},
        surrogate::SurrogateOptions{});
    const graph::Graph g = build();
    benchmark::DoNotOptimize(graph::graphResult(session, g).totalCycles);
    for (auto _ : state) {
        auto r = graph::graphResult(session, g);
        benchmark::DoNotOptimize(r.totalCycles);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_GraphResultHit, resnet50_b32,
                  +[] { return graph::zoo::resnet50Graph(32); });
BENCHMARK_CAPTURE(BM_GraphResultHit, decode_b8_c2048, +[] {
    graph::DecoderConfig dec;
    dec.batch = 8;
    return graph::decodeGraph(dec, 2048);
});

/**
 * SimSession::runInference on a warm exact session over the distinct
 * layers of resnet50-b1: every layer is a cache hit answered on the
 * calling thread, so its cost is the layer key and one lookup. At
 * Threads(2) two callers share the session and its cache. Items are
 * layer queries.
 */
void
BM_LayerHit(benchmark::State &state)
{
    struct WarmLayers
    {
        runtime::SimSession session{
            arch::makeCoreConfig(arch::CoreVersion::Max), {},
            std::make_shared<runtime::SimCache>(), {},
            surrogate::SurrogateOptions{}};
        model::Network net;

        WarmLayers()
        {
            std::set<std::string> seen;
            model::Network all =
                graph::toNetwork(graph::zoo::resnet50Graph(1));
            for (model::Layer &l : all.layers)
                if (seen.insert(runtime::fingerprint(l)).second)
                    net.add(std::move(l));
            benchmark::DoNotOptimize(session.runInference(net).size());
        }
    };
    static const WarmLayers warm;
    for (auto _ : state) {
        auto runs = warm.session.runInference(warm.net);
        benchmark::DoNotOptimize(runs.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(warm.net.layers.size()));
}
BENCHMARK(BM_LayerHit)->Threads(1)->Threads(2)->UseRealTime();

void
BM_LlcAccess(benchmark::State &state)
{
    memory::Llc llc(memory::LlcConfig{96 * kMiB, 16, 4 * kKiB, 1});
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(llc.access(addr));
        addr += 4 * kKiB;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LlcAccess);

void
BM_ChipSimFluid(benchmark::State &state)
{
    // 64 cores x 32 tasks with index-derived skew: every core holds a
    // distinct fluid state, so each is its own cohort, the event loop's
    // worst case (and the Chip trace spans under ASCEND_TRACE). The
    // workload is identical every iteration, so the emitted spans
    // dedup and the trace stays iteration-count independent.
    std::vector<std::vector<soc::CoreTask>> per_core(64);
    for (std::size_t c = 0; c < per_core.size(); ++c) {
        per_core[c].resize(32);
        for (std::size_t t = 0; t < per_core[c].size(); ++t) {
            soc::CoreTask &task = per_core[c][t];
            task.computeSeconds = 1e-5 * double(1 + (c * 7 + t * 3) % 11);
            task.memBytes = Bytes(4 * kKiB * (1 + (c + 5 * t) % 13));
        }
    }
    for (auto _ : state) {
        auto r = soc::runChipSim(per_core, 1.0e12);
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(state.iterations() * 64 * 32);
}
BENCHMARK(BM_ChipSimFluid);

void
BM_ChipSimFanout(benchmark::State &state)
{
    // perf/'s chip-fanout class structure at its widest shape: 4096
    // cores x 32 tasks, each core drawing a phase into a five-step
    // compute pattern and one of 11 traffic classes. Cores that share
    // a draw hold bit-identical fluid state, so the loop advances at
    // most about 70 cohorts per instant instead of 4096 cores.
    // BM_ChipSimFluid, where every core is distinct, is the worst case.
    constexpr std::size_t kCores = 4096, kTasks = 32;
    std::vector<std::vector<soc::CoreTask>> per_core(kCores);
    Rng rng(11);
    for (auto &queue : per_core) {
        const std::uint64_t phase = rng.uniform(5);
        const std::uint64_t traffic = rng.uniform(11);
        queue.resize(kTasks);
        for (std::size_t k = 0; k < kTasks; ++k) {
            queue[k].computeSeconds = 1e-4 * double(1 + (phase + 3 * k) % 5);
            queue[k].memBytes = Bytes(traffic + k + 1) * kMiB;
        }
    }
    for (auto _ : state) {
        auto r = soc::runChipSim(per_core, 4e12);
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(state.iterations() * kCores * kTasks);
}
BENCHMARK(BM_ChipSimFanout);

void
BM_MeshCycle(benchmark::State &state)
{
    noc::MeshConfig cfg;
    noc::MeshNoc mesh(cfg);
    noc::UniformTraffic traffic(0.2, mesh.nodes());
    for (auto _ : state) {
        auto s = mesh.run(traffic, 1000);
        benchmark::DoNotOptimize(s.delivered);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MeshCycle);

/**
 * One runFleet of about 10k requests at 2x saturation on 8 replicas
 * (batches up to 32), a quarter of them stragglers at 1.5x: either
 * ungoverned with hedging (the backlog grows all run) or with
 * admission, the expired-at-dispatch drop and closed-loop re-offers.
 * Items are offered requests.
 */
void
BM_FleetOverload(benchmark::State &state, bool shed)
{
    const auto model = serving::BatchLatencyModel::linear(2e-3, 2.5e-4, 32);
    const double lb = model.latencySeconds(32);
    serving::QosTier premium;
    premium.deadlineSec = 5.0 * lb;
    premium.share = 0.2;
    premium.sheddable = false;
    premium.reservedSlots = 2;
    serving::QosTier standard;
    standard.deadlineSec = 3.0 * lb;
    standard.share = 0.8;
    const std::vector<serving::QosTier> tiers{premium, standard};

    serving::ArrivalSpec arr;
    arr.seed = 11;
    arr.ratePerSec = 2.0 * model.saturationRequestsPerSec(8);
    arr.horizonSec = 1e4 / arr.ratePerSec;
    const auto arrivals = serving::generateArrivals(arr, tiers);
    resilience::FaultSpec spec;
    spec.seed = 11;
    spec.horizonSec = arr.horizonSec;
    spec.cores = 8;
    spec.stragglerFraction = 0.25;
    spec.stragglerSlowdown = 1.5;
    const auto faults = resilience::FaultSchedule::generate(spec);

    serving::FleetOptions o;
    o.replicas = 8;
    o.admission.enabled = shed;
    o.hedge.enabled = !shed;
    o.hedge.afterSec = 1.25 * lb;
    o.reoffer.enabled = shed;
    o.reoffer.delaySec = 2.0 * lb;
    std::uint64_t offered = 0;
    for (auto _ : state) {
        const auto r = serving::runFleet(arrivals, tiers, model, faults, o);
        offered += r.offered;
        benchmark::DoNotOptimize(r.p99);
    }
    state.SetItemsProcessed(std::int64_t(offered));
}
BENCHMARK_CAPTURE(BM_FleetOverload, hedge, false);
BENCHMARK_CAPTURE(BM_FleetOverload, shed, true);

} // anonymous namespace

BENCHMARK_MAIN();
