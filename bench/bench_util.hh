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
 * in one in-process cache + thread-pooled); with ASCEND_SIM_STATS=1
 * (or true) every banner-using bench prints runtime::simStatsReport
 * at exit: the process cache counters (with hit rate), per-scope
 * wall-clock timings and one row per registered runtime counter. The
 * table goes to stderr so stdout, pinned to tests/golden at
 * ASCEND_THREADS 1 and 8 (ctest -L bench-golden), stays
 * byte-identical across runs and thread counts. Rows ending in "~"
 * (cache, threads, timings, Racy counters) may vary with
 * ASCEND_THREADS; the rest must not. Each bench's main goes through
 * bench::main, so a refused outside value exits 1 with one stderr
 * line.
 */

#ifndef ASCEND_BENCH_BENCH_UTIL_HH
#define ASCEND_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hh"
#include "common/field.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "runtime/perf_stats.hh"
#include "runtime/profile.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"

namespace ascend {
namespace bench {

/**
 * Every bench's main: runs @p body (int() or int(int, char **)) and
 * ends a refused outside value (an ascend::Error such as a malformed
 * ASCEND_* variable or flag) with its one-line message on stderr and
 * exit 1, as ascend_cli does, instead of std::terminate.
 */
template <typename Body>
int
main(int argc, char **argv, Body &&body)
{
    try {
        if constexpr (std::is_invocable_v<Body, int, char **>)
            return body(argc, argv);
        else
            return body();
    } catch (const Error &e) {
        fatal("%s", e.what());
    }
}

/** Print a banner naming the experiment. */
inline void
banner(const std::string &what)
{
    // First banner wires up the ASCEND_SIM_STATS=1 observability
    // hook: one aligned stats table on exit, after all tables.
    static const bool registered = [] {
        if (envValue<bool>("ASCEND_SIM_STATS").value_or(false)) {
            // Construct the process cache *before* registering the
            // handler: statics destruct in reverse order, so the
            // report then prints while the cache is still alive.
            runtime::SimSession::processCache();
            std::atexit([] {
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
