/**
 * @file
 * Runtime performance trajectory: wall-clock per simulation stage,
 * cache effectiveness and thread budget, emitted both as a human
 * table and as machine-readable `BENCH_runtime.json` in the current
 * directory — so the repo has one number stream to track the hot
 * path across PRs.
 *
 * Stages:
 *  - resnet50 infer (cold): per-layer cycle simulation, first touch
 *    (a warm ASCEND_CACHE_DIR makes even this one mostly cache hits —
 *    which is exactly what the CI warm-cache job asserts);
 *  - resnet50 infer (warm): identical query, in-memory cache hits;
 *  - bert-base training: forward+backward layer sweep;
 *  - chip-sim 32-core: the fluid SoC step (layer sim + event loop);
 *  - chip-sim 4096-core synthetic: a pure event-loop stress at
 *    cluster-node scale, where the active-set passes dominate (no
 *    layer simulation in the loop).
 *
 * Timings vary run to run, so nothing here is golden-diffed; the
 * JSON is for trend lines and the warm-cache CI assertion.
 */

#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "soc/chip_sim.hh"
#include "soc/training_soc.hh"

using namespace ascend;
using Clock = std::chrono::steady_clock;

namespace {

struct Stage
{
    std::string name;
    double seconds = 0;
};

double
elapsedSec(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Synthetic cluster-node-scale chip: many cores, no layer sim. */
soc::ChipSimResult
syntheticChipSim(unsigned cores, unsigned tasks_per_core)
{
    std::vector<std::vector<soc::CoreTask>> work(cores);
    for (unsigned c = 0; c < cores; ++c)
        for (unsigned k = 0; k < tasks_per_core; ++k)
            work[c].push_back(
                soc::CoreTask{1e-4 * (1 + (c + 3 * k) % 5),
                              Bytes((c % 11) + k + 1) * kMiB});
    return soc::runChipSim(work, 4e12);
}

void
writeJson(const std::vector<Stage> &stages,
          const runtime::SimCache::Stats &cache, unsigned threads,
          double sweep_exact_sec, double sweep_surrogate_sec)
{
    std::ofstream out("BENCH_runtime.json");
    out << "{\n  \"threads\": " << threads << ",\n  \"stages\": [\n";
    for (std::size_t i = 0; i < stages.size(); ++i)
        out << "    {\"name\": \"" << stages[i].name
            << "\", \"seconds\": " << stages[i].seconds << "}"
            << (i + 1 < stages.size() ? "," : "") << "\n";
    out << "  ],\n  \"surrogate\": {\"exact_seconds\": "
        << sweep_exact_sec
        << ", \"surrogate_seconds\": " << sweep_surrogate_sec
        << ", \"speedup\": "
        << (sweep_surrogate_sec > 0
                ? sweep_exact_sec / sweep_surrogate_sec
                : 0)
        << "},\n  \"cache\": {\"hits\": " << cache.hits
        << ", \"misses\": " << cache.misses
        << ", \"hit_rate\": " << cache.hitRate()
        << ", \"entries\": " << cache.entries
        << ", \"disk_loads\": " << cache.diskLoads
        << ", \"disk_stores\": " << cache.diskStores << "}\n}\n";
}

} // anonymous namespace

int
main()
{
    bench::banner("Runtime perf trajectory (wall clock, not golden)");

    std::vector<Stage> stages;
    auto timeStage = [&stages](const std::string &name,
                               const std::function<void()> &fn) {
        const auto start = Clock::now();
        fn();
        stages.push_back({name, elapsedSec(start)});
    };

    soc::TrainingSoc soc910;
    runtime::SimSession session(soc910.coreConfig());

    timeStage("resnet50 infer (cold)", [&] {
        session.inferenceResult(
            graph::toNetwork(graph::zoo::resnet50Graph(4)));
    });
    timeStage("resnet50 infer (warm)", [&] {
        session.inferenceResult(
            graph::toNetwork(graph::zoo::resnet50Graph(4)));
    });
    timeStage("bert-base training", [&] {
        session.runTraining(graph::toNetwork(graph::zoo::bertBaseGraph(8)));
    });
    timeStage("chip-sim 32-core fluid step", [&] {
        soc910.fluidInferStep(graph::toNetwork(graph::zoo::resnet50Graph(4)));
    });
    timeStage("chip-sim 4096-core synthetic", [&] {
        syntheticChipSim(4096, 64);
    });

    // Surrogate-off vs surrogate-on over one design-space sweep (a
    // GEMM m-axis scan on fresh private caches, so neither leg can
    // feed the other): the perf trajectory's record of what the
    // surrogate tier buys.
    const auto mSweep = [](const runtime::SimSession &s) {
        for (unsigned m = 500; m < 2500; m += 37)
            s.runLayer(model::Layer::linear("sweep", m, 1024, 1024));
    };
    timeStage("design sweep (exact)", [&] {
        const runtime::SimSession exact(
            soc910.coreConfig(), {},
            std::make_shared<runtime::SimCache>(), {},
            surrogate::SurrogateOptions{});
        mSweep(exact);
    });
    const double sweepExactSec = stages.back().seconds;
    timeStage("design sweep (surrogate)", [&] {
        surrogate::SurrogateOptions sur;
        sur.enabled = true;
        const runtime::SimSession pred(
            soc910.coreConfig(), {},
            std::make_shared<runtime::SimCache>(), {}, sur);
        mSweep(pred);
    });
    const double sweepSurrogateSec = stages.back().seconds;

    const unsigned threads = runtime::ThreadPool::configuredThreads();
    const runtime::SimCache::Stats cache =
        runtime::SimSession::processCache()->stats();

    TextTable t("per-stage wall clock, " +
                TextTable::num(std::uint64_t(threads)) + " threads");
    t.header({"stage", "seconds"});
    for (const Stage &s : stages)
        t.row({s.name, TextTable::num(s.seconds, 4)});
    t.print(std::cout);
    std::cout << "cache: " << cache.hits << " hits / " << cache.misses
              << " misses ("
              << TextTable::num(100.0 * cache.hitRate(), 1)
              << "% hit rate)\n";

    if (sweepSurrogateSec > 0)
        std::cout << "surrogate design-sweep speedup: "
                  << TextTable::num(
                         sweepExactSec / sweepSurrogateSec, 1)
                  << "x\n";
    writeJson(stages, cache, threads, sweepExactSec,
              sweepSurrogateSec);
    std::cout << "wrote BENCH_runtime.json\n";
    return 0;
}
