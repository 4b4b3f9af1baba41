/**
 * @file
 * Sim-time observability: the process-wide event tracer.
 *
 * Every simulator layer (core pipes, fluid chip sim, LLC, mesh NoC,
 * cluster collectives) can record *sim-time* spans and counters here;
 * the tracer merges them into one Chrome/Perfetto trace-event JSON
 * file. Timestamps are simulated time (cycles for cycle-driven
 * domains, nanoseconds for fluid/analytical domains), never wall
 * clock, and events carry no thread or allocation identity — which is
 * what makes the output deterministic.
 *
 * Determinism contract: recording goes to thread-local buffers; at
 * write time all buffers are merged, sorted by the full event tuple
 * (domain, track, start, duration, name, bytes) and deduplicated.
 * Because every field is derived from sim time and static labels, the
 * merged set — and therefore the emitted JSON, byte for byte — is
 * independent of ASCEND_THREADS, of scheduling, and of how many times
 * an identical simulation was repeated (e.g. benchmark iterations).
 *
 * Overhead contract: when tracing is disabled (the default), the only
 * cost at a record site is one relaxed atomic load and a predictable
 * branch; bench_trace_overhead asserts the end-to-end cost stays
 * under 5%. Compiling with -DASCEND_OBS_NO_TRACE removes even that
 * (enabled() becomes a compile-time false and the ring buffers are
 * compiled out).
 *
 * Activation: set ASCEND_TRACE=<path> in the environment (the trace
 * is written at process exit or at stop()), or call
 * Tracer::instance().start(path) / stop() programmatically.
 *
 * Threading contract: span()/counter() are safe from any thread, but
 * start()/stop()/clear()/json() must run while no simulation is in
 * flight (after parallelFor has joined). The simulator's entry points
 * all satisfy this naturally.
 */

#ifndef ASCEND_OBS_TRACER_HH
#define ASCEND_OBS_TRACER_HH

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace ascend {
namespace obs {

#ifdef ASCEND_OBS_NO_TRACE
constexpr bool kTraceCompiledIn = false;
#else
constexpr bool kTraceCompiledIn = true;
#endif

/**
 * Trace domains, one viewer "process" each. The numeric value is the
 * Chrome trace pid, so it is part of the stable output format (6 is
 * retired, not reused).
 */
enum class Domain : std::uint32_t {
    Core = 1,    ///< core pipes; timestamps in core cycles
    Chip = 2,    ///< fluid chip sim; timestamps in nanoseconds
    Llc = 3,     ///< LLC model; timestamps in access ticks
    Noc = 4,     ///< mesh NoC; timestamps in NoC cycles
    Cluster = 5, ///< collective phases; timestamps in nanoseconds
    Serving = 7, ///< fleet serving sim; timestamps in nanoseconds
    Surrogate = 8, ///< surrogate cost model; timestamps in core cycles
    Graph = 9,   ///< graph lowering; timestamps in core cycles
};

/** One completed interval on a (domain, track) timeline. */
struct Span
{
    std::uint32_t pid = 0;      ///< Domain
    std::uint32_t tid = 0;      ///< track within the domain (1-based)
    std::uint64_t start = 0;    ///< sim-time units of the domain
    std::uint64_t duration = 0;
    const char *name = nullptr; ///< static label; may be null
    std::uint64_t bytes = 0;    ///< payload moved; 0 = not reported
};

/** One counter sample on a (domain, name) series. */
struct CounterSample
{
    std::uint32_t pid = 0;
    std::uint64_t ts = 0;
    const char *name = nullptr;
    double value = 0;
};

/**
 * Sim seconds to the nanosecond timestamps of the fluid and analytical
 * domains (Chip, Cluster, Serving): every such record site rounds
 * through here, so their timestamps agree to the nanosecond.
 */
inline std::uint64_t
traceNs(double seconds)
{
    return std::uint64_t(std::llround(seconds * 1e9));
}

/**
 * The process-wide tracer singleton.
 */
class Tracer
{
  public:
    static Tracer &instance();

    /**
     * Cheap global gate for record sites. Hoist into a pointer at
     * region entry: `Tracer *tr = Tracer::current();`.
     */
    static bool
    enabled()
    {
        return kTraceCompiledIn &&
               activeFlag().load(std::memory_order_relaxed);
    }

    /** The tracer when enabled, nullptr otherwise. */
    static Tracer *
    current()
    {
        return enabled() ? &instance() : nullptr;
    }

    /**
     * Begin collecting. @p path is where stop() (or process exit)
     * writes the JSON; empty collects in memory only (tests use
     * json() instead).
     */
    void start(const std::string &path);

    /** start(ASCEND_TRACE) when the variable is set and non-empty. */
    void startFromEnv();

    /**
     * Stop collecting; if a path was given, write the trace file.
     * Buffers are cleared. Safe to call when not started.
     */
    void stop();

    /** Record one span. No-op (beyond buffering) when stopped. */
    void span(Domain domain, std::uint32_t track, const char *name,
              std::uint64_t start, std::uint64_t duration,
              std::uint64_t bytes = 0);

    /** Record one counter sample. */
    void counter(Domain domain, const char *name, std::uint64_t ts,
                 double value);

    /**
     * Merge, sort, dedup and emit Chrome trace-event JSON. The text
     * is deterministic: byte-identical for identical simulated work
     * at any thread count.
     */
    void write(std::ostream &os);

    /** write() into a string. */
    std::string json();

    /** The merged, sorted and deduplicated spans write() emits. */
    std::vector<Span> spans();

    /** Deduplicated span count. */
    std::size_t spanCount() { return spans().size(); }

    /** Drop all recorded events; keeps the active/path state. */
    void clear();

    const std::string &path() const { return path_; }

  private:
    Tracer() = default;

    struct Buffer
    {
        std::vector<Span> spans;
        std::vector<CounterSample> counters;
        /** Sizes that trigger the next compaction (see tracer.cc). */
        std::size_t compactSpansAt = 0;
        std::size_t compactCountersAt = 0;
    };

    static std::atomic<bool> &activeFlag();

    Buffer &localBuffer();
    /** Merged + sorted + deduped view of all buffers. */
    void collect(std::vector<Span> &spans,
                 std::vector<CounterSample> &counters);

    std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::string path_;
    bool atexitRegistered_ = false;
};

} // namespace obs
} // namespace ascend

#endif // ASCEND_OBS_TRACER_HH
