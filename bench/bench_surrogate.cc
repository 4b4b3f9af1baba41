/**
 * @file
 * Surrogate cost-model benchmark: exact-vs-predicted cycle error and
 * wall-clock speedup over five design-space shape families, emitted
 * as a human table plus machine-readable `BENCH_surrogate.json`.
 *
 * Each family is a dense 1-axis sweep (GEMM m, batched-matmul count,
 * conv batch, elementwise size, softmax rows) with every other axis
 * pinned to an on-grid value — the shape of a real design-space
 * exploration, and the regime the surrogate is built for: many
 * queries sharing a small set of bracketing anchor simulations. Both
 * legs run on fresh private SimCaches so neither can feed the other
 * and the process cache cannot skew the exact-leg timing.
 *
 * Everything on stdout is a pure function of the shapes and the
 * simulator — outcome counts, per-family error percentiles, the
 * budget verdict — so the output byte-diffs clean across
 * ASCEND_THREADS settings (tests/golden/bench_surrogate.txt pins it
 * at 1 and 8). Wall-clock seconds and speedups vary run to run and
 * go to stderr and the JSON only.
 *
 * Exit status is the error contract: nonzero if the worst observed
 * relative cycle error across every predicted query exceeds the
 * configured budget.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "runtime/thread_pool.hh"
#include "soc/training_soc.hh"
#include "surrogate/surrogate.hh"

using namespace ascend;
using Clock = std::chrono::steady_clock;

namespace {

struct Family
{
    std::string name;
    std::vector<model::Layer> layers;
};

/** The five sweep families (distinct shapes only; see file header). */
std::vector<Family>
buildFamilies()
{
    std::vector<Family> fams;

    Family gemm{"gemm-m", {}};
    for (std::uint64_t m = 520; m <= 6144; m += 6)
        gemm.layers.push_back(model::Layer::linear("g", m, 1024, 1024));
    fams.push_back(std::move(gemm));

    Family bmm{"bmm-count", {}};
    for (std::uint64_t c = 12; c <= 400; ++c)
        bmm.layers.push_back(
            model::Layer::batchedMatmul("b", c, 256, 64, 256));
    fams.push_back(std::move(bmm));

    Family conv{"conv-batch", {}};
    for (unsigned b = 32; b <= 288; ++b)
        conv.layers.push_back(
            model::Layer::conv2d("c", b, 64, 16, 16, 128, 3, 1, 1));
    fams.push_back(std::move(conv));

    Family vec{"vector-elems", {}};
    for (std::uint64_t i = 0; i < 300; ++i)
        vec.layers.push_back(model::Layer::elementwise(
            "v", (std::uint64_t(16) << 20) + i * 55903));
    fams.push_back(std::move(vec));

    Family soft{"softmax-rows", {}};
    for (std::uint64_t r = 2600; r <= 24000; r += 37)
        soft.layers.push_back(model::Layer::softmax("s", r, 1024));
    fams.push_back(std::move(soft));

    return fams;
}

struct FamilyStats
{
    std::string name;
    std::size_t queries = 0;
    std::uint64_t predicted = 0;
    std::uint64_t anchors = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t spotChecks = 0;
    double exactSec = 0;
    double surrogateSec = 0;
    std::vector<double> errs; ///< rel cycle error, predicted only
    double speedup() const
    {
        return surrogateSec > 0 ? exactSec / surrogateSec : 0;
    }
};

double
elapsedSec(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nearest-rank percentile of an unsorted sample (0 when empty). */
double
percentile(std::vector<double> sample, double pct)
{
    if (sample.empty())
        return 0;
    std::sort(sample.begin(), sample.end());
    const double rank = std::ceil(pct / 100.0 * double(sample.size()));
    const std::size_t idx = std::min(
        sample.size() - 1,
        std::size_t(std::max(rank - 1, 0.0)));
    return sample[idx];
}

/** Run one family through an exact leg and a surrogate leg. */
FamilyStats
runFamily(const Family &family, const soc::TrainingSoc &soc,
          const surrogate::SurrogateOptions &sur_opts)
{
    FamilyStats fs;
    fs.name = family.name;
    fs.queries = family.layers.size();
    const std::size_t n = family.layers.size();

    std::vector<core::SimResult> exactRes(n);
    {
        const runtime::SimSession exact(
            soc.coreConfig(), {},
            std::make_shared<runtime::SimCache>(), {},
            surrogate::SurrogateOptions{});
        const auto start = Clock::now();
        runtime::parallelFor(n, [&](std::size_t i) {
            exactRes[i] = exact.runLayer(family.layers[i]);
        });
        fs.exactSec = elapsedSec(start);
    }

    std::vector<core::SimResult> surRes(n);
    std::vector<surrogate::Outcome> outcome(n);
    {
        const runtime::SimSession pred(
            soc.coreConfig(), {},
            std::make_shared<runtime::SimCache>(), {}, sur_opts);
        const auto start = Clock::now();
        runtime::parallelFor(n, [&](std::size_t i) {
            surRes[i] = pred.runLayer(family.layers[i], &outcome[i]);
        });
        fs.surrogateSec = elapsedSec(start);
    }

    const surrogate::Surrogate grid(sur_opts);
    for (std::size_t i = 0; i < n; ++i) {
        switch (outcome[i]) {
          case surrogate::Outcome::Predicted:
            ++fs.predicted;
            break;
          case surrogate::Outcome::Anchor:
          case surrogate::Outcome::CacheHit:
            // Shapes are distinct, so a hit is an on-grid shape that
            // another query's interpolation already simulated: an
            // anchor, whichever query reached it first.
            simAssert(grid.onGrid(family.layers[i]),
                      "surrogate cache hit on an off-grid shape");
            ++fs.anchors;
            break;
          case surrogate::Outcome::SpotCheck:
            ++fs.spotChecks;
            break;
          case surrogate::Outcome::FallbackSmall:
          case surrogate::Outcome::FallbackHull:
          case surrogate::Outcome::FallbackBudget:
            ++fs.fallbacks;
            break;
          case surrogate::Outcome::Disabled:
            break;
        }
        const double ec = double(exactRes[i].totalCycles);
        if (outcome[i] == surrogate::Outcome::Predicted) {
            const double pc = double(surRes[i].totalCycles);
            fs.errs.push_back(std::abs(pc - ec) /
                              std::max(ec, 1.0));
        } else {
            // Every non-predicted outcome is the exact simulator's
            // answer and must match the exact leg bit for bit.
            simAssert(surRes[i].totalCycles ==
                          exactRes[i].totalCycles,
                      "surrogate fallback diverged from exact leg");
        }
    }
    return fs;
}

void
writeJson(const std::vector<FamilyStats> &fams, double err_budget,
          double geomean, double max_err,
          const std::vector<double> &all_errs, unsigned threads)
{
    std::ofstream out("BENCH_surrogate.json");
    out << "{\n  \"err_budget\": " << err_budget
        << ",\n  \"threads\": " << threads
        << ",\n  \"families\": [\n";
    for (std::size_t i = 0; i < fams.size(); ++i) {
        const FamilyStats &f = fams[i];
        out << "    {\"name\": \"" << f.name
            << "\", \"queries\": " << f.queries
            << ", \"predicted\": " << f.predicted
            << ", \"anchors\": " << f.anchors
            << ", \"fallbacks\": " << f.fallbacks
            << ", \"spot_checks\": " << f.spotChecks
            << ", \"exact_seconds\": " << f.exactSec
            << ", \"surrogate_seconds\": " << f.surrogateSec
            << ", \"speedup\": " << f.speedup()
            << ", \"max_rel_err\": " << percentile(f.errs, 100)
            << ", \"err_p50\": " << percentile(f.errs, 50)
            << ", \"err_p99\": " << percentile(f.errs, 99) << "}"
            << (i + 1 < fams.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"error_cdf\": [\n";
    for (int pct = 10; pct <= 100; pct += 10)
        out << "    {\"pct\": " << pct
            << ", \"rel_err\": " << percentile(all_errs, pct) << "}"
            << (pct < 100 ? "," : "") << "\n";
    out << "  ],\n  \"overall\": {\"speedup_geomean\": " << geomean
        << ", \"max_rel_err\": " << max_err << ", \"within_budget\": "
        << (max_err <= err_budget ? "true" : "false") << "}\n}\n";
}

} // anonymous namespace

int
runBench()
{
    bench::banner("Surrogate cost model: error CDF and speedup");

    surrogate::SurrogateOptions surOpts =
        surrogate::SurrogateOptions::fromEnv();
    surOpts.enabled = true;

    soc::TrainingSoc soc910;
    const std::vector<Family> families = buildFamilies();

    std::vector<FamilyStats> stats;
    std::vector<double> allErrs;
    double logSum = 0;
    for (const Family &f : families) {
        stats.push_back(runFamily(f, soc910, surOpts));
        const FamilyStats &fs = stats.back();
        allErrs.insert(allErrs.end(), fs.errs.begin(), fs.errs.end());
        logSum += std::log(std::max(fs.speedup(), 1e-9));
        std::cerr << fs.name << ": "
                  << TextTable::num(fs.speedup(), 1) << "x ("
                  << TextTable::num(fs.exactSec, 3) << "s exact, "
                  << TextTable::num(fs.surrogateSec, 3)
                  << "s surrogate)\n";
    }
    const double geomean = std::exp(logSum / double(stats.size()));
    const double maxErr = percentile(allErrs, 100);

    TextTable t("surrogate accuracy per family (budget " +
                TextTable::num(100 * surOpts.errBudget, 2) + "%)");
    t.header({"family", "queries", "predicted", "anchors",
              "fallbacks", "spot", "p50 err%", "p99 err%",
              "max err%"});
    for (const FamilyStats &f : stats)
        t.row({f.name, TextTable::num(std::uint64_t(f.queries)),
               TextTable::num(f.predicted),
               TextTable::num(f.anchors),
               TextTable::num(f.fallbacks),
               TextTable::num(f.spotChecks),
               TextTable::num(100 * percentile(f.errs, 50), 3),
               TextTable::num(100 * percentile(f.errs, 99), 3),
               TextTable::num(100 * percentile(f.errs, 100), 3)});
    t.print(std::cout);

    const bool withinBudget = maxErr <= surOpts.errBudget;
    std::cout << "max rel cycle error "
              << TextTable::num(100 * maxErr, 3) << "% vs budget "
              << TextTable::num(100 * surOpts.errBudget, 2) << "%: "
              << (withinBudget ? "PASS" : "FAIL") << "\n";

    std::cerr << "speedup geomean: " << TextTable::num(geomean, 1)
              << "x\n";
    writeJson(stats, surOpts.errBudget, geomean, maxErr, allErrs,
              runtime::ThreadPool::configuredThreads());
    std::cout << "wrote BENCH_surrogate.json\n";
    return withinBudget ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
