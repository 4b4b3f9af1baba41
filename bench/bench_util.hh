/**
 * @file
 * Shared helpers for the table/figure regeneration benches.
 *
 * Every bench binary regenerates one table or figure of the paper:
 * it prints the paper's reported values next to the values this
 * reproduction measures, so the shape comparison is visible in one
 * place. EXPERIMENTS.md records the same numbers.
 *
 * The benches drive simulation through runtime::SimSession (memoized
 * + thread-pooled); with ASCEND_SIM_STATS=1 every banner-using bench
 * prints runtime::simStatsReport at exit: the process cache counters
 * (with hit rate and disk load/store counts), per-scope wall-clock
 * timings and one row per registered runtime counter. The table goes
 * to stderr so the golden-diffed stdout stays byte-identical across
 * runs and thread counts. Rows ending in "~" (cache, threads,
 * timings, Racy counters) may vary with ASCEND_THREADS; the rest
 * must not.
 */

#ifndef ASCEND_BENCH_BENCH_UTIL_HH
#define ASCEND_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/atomic_file.hh"
#include "common/golden.hh"
#include "common/table.hh"
#include "runtime/perf_stats.hh"
#include "runtime/profile.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"

namespace ascend {
namespace bench {

/** Print a banner naming the experiment. */
inline void
banner(const std::string &what)
{
    // First banner wires up the ASCEND_SIM_STATS=1 observability
    // hook: one aligned stats table on exit, after all tables.
    static const bool registered = [] {
        const char *env = std::getenv("ASCEND_SIM_STATS");
        if (env && std::string(env) == "1") {
            // Construct the process cache *before* registering the
            // handler: statics destruct in reverse order, so the
            // report then prints while the cache is still alive. The
            // cache's own exit save was registered first, so it would
            // run after the report: save here, before counting.
            runtime::SimSession::processCache();
            std::atexit([] {
                runtime::SimSession::saveProcessCache();
                std::cerr << runtime::simStatsReport(
                    runtime::SimSession::processCache()->stats(),
                    runtime::ThreadPool::configuredThreads());
            });
        }
        return true;
    }();
    (void)registered;
    std::cout << "\n=================================================\n"
              << what << "\n"
              << "=================================================\n";
}

/**
 * Golden-diff helper: compare @p actual against the file at
 * @p goldenPath. Trailing-whitespace normalization happens here, in
 * one place, for every bench and CI check — individual benches must
 * not re-normalize. On mismatch prints a per-line diff to stderr and
 * returns false; a missing golden file is also a failure (with a
 * hint to regenerate).
 */
inline bool
checkGolden(const std::string &actual, const std::string &goldenPath)
{
    const std::optional<std::string> expected = readFile(goldenPath);
    if (!expected) {
        std::cerr << "golden: cannot read " << goldenPath
                  << " (regenerate by redirecting this bench's stdout"
                     " there)\n";
        return false;
    }
    const std::string diff = diffGolden(*expected, actual);
    if (diff.empty())
        return true;
    std::cerr << "golden mismatch vs " << goldenPath << ":\n" << diff;
    return false;
}

/** Print a fusion-group ratio series (Figs. 4-8 format). */
inline void
printRatioSeries(const std::string &title,
                 const std::vector<runtime::GroupProfile> &groups)
{
    TextTable table(title);
    table.header({"#", "operator", "cube busy", "vec busy", "cube/vec"});
    unsigned idx = 0;
    unsigned above_one = 0;
    for (const auto &g : groups) {
        if (g.cubeVectorRatio() > 1.0)
            ++above_one;
        table.row({TextTable::num(std::uint64_t(idx++)), g.name,
                   TextTable::num(std::uint64_t(g.cubeBusy)),
                   TextTable::num(std::uint64_t(g.vectorBusy)),
                   TextTable::num(g.cubeVectorRatio(), 2)});
    }
    table.print(std::cout);
    std::cout << above_one << "/" << groups.size()
              << " operators have cube/vector ratio > 1\n";
}

/** Print an L1 bandwidth profile (Fig. 9 format). */
inline void
printBandwidthSeries(const std::string &title,
                     const std::vector<runtime::GroupProfile> &groups)
{
    TextTable table(title);
    table.header({"#", "operator", "L1 read bits/cycle",
                  "L1 write bits/cycle"});
    unsigned idx = 0;
    double max_read = 0, max_write = 0;
    for (const auto &g : groups) {
        max_read = std::max(max_read, g.l1ReadBitsPerCycle());
        max_write = std::max(max_write, g.l1WriteBitsPerCycle());
        table.row({TextTable::num(std::uint64_t(idx++)), g.name,
                   TextTable::num(g.l1ReadBitsPerCycle(), 0),
                   TextTable::num(g.l1WriteBitsPerCycle(), 0)});
    }
    table.print(std::cout);
    std::cout << "max read " << TextTable::num(max_read, 0)
              << " bits/cycle, max write " << TextTable::num(max_write, 0)
              << " bits/cycle (paper bound: read <= 4096, write <= 2048)\n";
}

} // namespace bench
} // namespace ascend

#endif // ASCEND_BENCH_BENCH_UTIL_HH
