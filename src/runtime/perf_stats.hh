/**
 * @file
 * Process-wide instrumentation: wall-clock perf scopes and named
 * counters, in one registry.
 *
 * A PerfScope is a named pair of atomic counters (calls,
 * nanoseconds); a PerfTimer is an RAII stopwatch charging one scope.
 * The perf/ benchmark (BENCHMARK.json) reads them to attribute wall
 * time to layers, so they must not disturb the stage being timed:
 * one steady_clock read on entry and one read plus two relaxed
 * atomic adds on exit — noise next to a layer or chip simulation.
 *
 * A Counter is a named sim-side tally (results simulated, events
 * dispatched, requests served, ...) that declares how it merges (Sum
 * or Max) and whether it is deterministic across thread counts. Each
 * charge site binds its counters once and charges them with relaxed
 * atomics. The ASCEND_SIM_STATS=1 report enumerates whatever
 * registered, so a subsystem's rows appear exactly when it ran.
 *
 * Instrumentation must never change simulation output.
 */

#ifndef ASCEND_RUNTIME_PERF_STATS_HH
#define ASCEND_RUNTIME_PERF_STATS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/sim_cache.hh"

namespace ascend {
namespace runtime {

/** Named accumulator of time spent in one kind of work. */
class PerfScope
{
  public:
    explicit PerfScope(std::string name) : name_(std::move(name)) {}

    PerfScope(const PerfScope &) = delete;
    PerfScope &operator=(const PerfScope &) = delete;

    const std::string &name() const { return name_; }

    std::uint64_t
    calls() const
    {
        return calls_.load(std::memory_order_relaxed);
    }

    double
    seconds() const
    {
        return double(nanos_.load(std::memory_order_relaxed)) * 1e-9;
    }

    void
    charge(std::uint64_t nanos)
    {
        calls_.fetch_add(1, std::memory_order_relaxed);
        nanos_.fetch_add(nanos, std::memory_order_relaxed);
    }

  private:
    const std::string name_;
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> nanos_{0};
};

/**
 * The process-wide scope named @p name (created on first use; the
 * returned reference stays valid for the process lifetime, so callers
 * typically bind it to a function-local static).
 */
PerfScope &perfScope(const std::string &name);

/** RAII stopwatch: charges its scope on destruction. */
class PerfTimer
{
  public:
    explicit PerfTimer(PerfScope &scope)
        : scope_(scope), start_(std::chrono::steady_clock::now())
    {
    }

    PerfTimer(const PerfTimer &) = delete;
    PerfTimer &operator=(const PerfTimer &) = delete;

    ~PerfTimer()
    {
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        scope_.charge(std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                elapsed)
                .count()));
    }

  private:
    PerfScope &scope_;
    std::chrono::steady_clock::time_point start_;
};

/** Point-in-time copy of one scope's counters. */
struct PerfEntry
{
    std::string name;
    std::uint64_t calls = 0;
    double seconds = 0;
};

/** Snapshot of every registered scope, sorted by name. */
std::vector<PerfEntry> perfSnapshot();

/** How a counter merges the values charged into it. */
enum class CounterKind {
    Sum, ///< charges add up
    Max, ///< the counter keeps the largest value charged
};

/**
 * Whether a counter's final value, for a fixed workload, is the same
 * at any ASCEND_THREADS. Deterministic counters are golden-diffed
 * across thread counts; Racy ones (e.g. outcomes that depend on which
 * of two concurrent queries filled the cache first) are flagged as
 * varying in the report.
 */
enum class Determinism { Deterministic, Racy };

/** How the report renders a counter's value. */
enum class CounterUnit {
    Count,    ///< a plain integer
    Fraction, ///< doubleBits() of a non-negative fraction, as a percent
};

/**
 * One process-wide named counter: a relaxed atomic u64. Non-negative
 * doubles order like their IEEE bit patterns, so a Max counter of
 * doubleBits() values keeps the largest double.
 */
class Counter
{
  public:
    Counter(std::string name, CounterKind kind, Determinism det,
            CounterUnit unit)
        : name_(std::move(name)), kind_(kind), det_(det), unit_(unit)
    {
    }

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    const std::string &name() const { return name_; }
    CounterKind kind() const { return kind_; }
    Determinism determinism() const { return det_; }
    CounterUnit unit() const { return unit_; }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Add @p v (Sum) or raise the counter to @p v (Max). */
    void
    charge(std::uint64_t v)
    {
        constexpr auto relaxed = std::memory_order_relaxed;
        if (kind_ == CounterKind::Sum) {
            value_.fetch_add(v, relaxed);
            return;
        }
        std::uint64_t seen = value_.load(relaxed);
        while (seen < v &&
               !value_.compare_exchange_weak(seen, v, relaxed, relaxed)) {
        }
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    const std::string name_;
    const CounterKind kind_;
    const Determinism det_;
    const CounterUnit unit_;
    std::atomic<std::uint64_t> value_{0};
};

/**
 * The process-wide counter named @p name, registered on first use
 * (the reference stays valid for the process lifetime: charge sites
 * bind it to a function-local static, so charging takes no lock).
 * The name is the counter's label in the ASCEND_SIM_STATS report.
 * Re-registering a name with a different kind, determinism or unit
 * throws Error{CounterConflict}.
 */
Counter &counter(const std::string &name, CounterKind kind,
                 Determinism det,
                 CounterUnit unit = CounterUnit::Count);

/**
 * Charge each field of @p rec, found through its forEachField list
 * (common/field.hh; every field a u64), into the deterministic Sum
 * counter "<prefix> <key>", for sites that charge a whole result.
 */
template <typename R>
void
chargeFields(const char *prefix, const R &rec)
{
    forEachField(
        [prefix](const char *key, const auto &v) {
            static_assert(
                std::is_same_v<std::decay_t<decltype(v)>, std::uint64_t>);
            counter(std::string(prefix) + ' ' + key, CounterKind::Sum,
                    Determinism::Deterministic)
                .charge(v);
        },
        rec);
}

/** Point-in-time copy of one counter. */
struct CounterEntry
{
    std::string name;
    CounterKind kind = CounterKind::Sum;
    Determinism determinism = Determinism::Deterministic;
    CounterUnit unit = CounterUnit::Count;
    std::uint64_t value = 0;
};

/** Snapshot of every registered counter, sorted by name. */
std::vector<CounterEntry> counterSnapshot();

/** Current value of counter @p name; 0 if it was never registered. */
std::uint64_t counterValue(const std::string &name);

/** Zero every counter (tests isolate themselves with this). */
void resetCounters();

/**
 * The ASCEND_SIM_STATS=1 report, one aligned table: the thread
 * budget, the SimCache counters (with hit rate, entries and
 * evictions), per-scope timings, one row per registered counter, and —
 * when any simulation ran — per-pipe utilization. Rows whose value
 * can vary with the thread count end in "~". Ends with a newline.
 */
std::string simStatsReport(const SimCache::Stats &stats,
                           unsigned threads);

} // namespace runtime
} // namespace ascend

#endif // ASCEND_RUNTIME_PERF_STATS_HH
