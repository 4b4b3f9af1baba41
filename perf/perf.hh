/**
 * @file
 * Shared pieces of the perf benchmark driver: seeded randomness, result
 * digests, the benchmark-side span recorder and the workload interface.
 *
 * The driver calls only public library functions and records its spans
 * around those calls, so the benchmark measures any commit of the
 * library without relying on instrumentation inside it.
 */

#ifndef ASCEND_PERF_PERF_HH
#define ASCEND_PERF_PERF_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/core_sim.hh"
#include "runtime/sim_cache.hh"

namespace perf {

/** The surrogate's error contract: max |pred - exact| / exact. */
constexpr double kErrBudget = 0.02;

/** splitmix64: the only randomness source; inputs depend on the seed only. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Seed of an independent stream derived from (seed, a, b). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a,
                      std::uint64_t b = 0);

/** FNV-1a over the bytes of every value added. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h_ = (h_ ^ c[i]) * 0x100000001b3ull;
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /** Every statistic a core::SimResult carries. */
    void simResult(const ascend::core::SimResult &r);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span: a call into one layer's public function. */
struct SpanRecord
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::int64_t op = -1;     ///< op index within its round, -1 = setup
    std::uint64_t work = 0;   ///< units of work the call did
    unsigned track = 0;       ///< recording thread
};

/**
 * In-memory span store. Spans are appended under one mutex (the traced
 * run measures its own overhead against the untraced one) and written
 * out only when the run ends.
 */
class Tracer
{
  public:
    /** Id for a span about to start. */
    std::uint64_t newId();
    void record(const SpanRecord &span);
    std::vector<SpanRecord> spans() const;

  private:
    mutable std::mutex mutex_;
    std::uint64_t nextId_ = 1;
    std::vector<SpanRecord> spans_;
};

/** The tracer of the current run phase; nullptr while untraced. */
Tracer *activeTracer();
void setActiveTracer(Tracer *tracer);

/** Op index spans of the current phase are attributed to. */
void setCurrentOp(std::int64_t op);

/**
 * RAII span around one call. A no-op while no tracer is active. The
 * parent defaults to the innermost open span on this thread; pass it
 * explicitly when the call runs on a pool thread.
 */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t parent = ~0ull);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Rename once the outcome is known (e.g. the tier that answered). */
    void setName(const char *name) { rec_.name = name; }
    void addWork(std::uint64_t units) { rec_.work += units; }

  private:
    Tracer *tracer_;
    SpanRecord rec_;
    std::uint64_t outer_ = 0;
};

/** Innermost open span on this thread (0 when none). */
std::uint64_t currentSpan();

/**
 * Add the hit/miss delta of one traced session's SimCache to the run's
 * tally (runtime.cache_hit_rate). No-op while untraced.
 */
void tallyCache(const ascend::runtime::SimCache::Stats &before,
                const ascend::runtime::SimCache::Stats &after);

/** {hits, misses} tallied so far. */
std::pair<std::uint64_t, std::uint64_t> cacheTally();

/** Per-name totals over a span set. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    std::uint64_t work = 0;
    double seconds = 0;     ///< summed durations
    double selfSeconds = 0; ///< durations minus the time children cover
};

/** Aggregate spans by name, with self time per name. */
std::vector<std::pair<std::string, SpanTotals>>
aggregate(const std::vector<SpanRecord> &spans);

/**
 * Chrome-trace JSON ("X" spans, ts sorted per track) of the earliest
 * @p max_spans spans, so a long traced run stays loadable in a viewer.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      std::size_t max_spans);

/** What one op returned, as the driver checks it. */
struct OpResult
{
    std::uint64_t digest = 0;
    /** Empty when every invariant held; otherwise what broke. */
    std::string violation;
};

/**
 * One workload. The driver times setup() and run(); prepare() and
 * check() make and verify inputs outside the timed op.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything the ops share. Called several times; each replaces
     *  the previous state. */
    virtual void setup() = 0;

    /** Ops per round (stratified: every round has the same mix). */
    virtual std::size_t roundSize() const = 0;

    /** Fresh per-round state and inputs for round @p round. */
    virtual void beginRound(std::uint64_t round) = 0;

    /** Untimed: build op @p i's inputs. */
    virtual void prepare(std::size_t /*i*/) {}

    /** Timed: the op itself. */
    virtual OpResult run(std::size_t i) = 0;

    /** Untimed: checks beyond the op's own invariants (hold-outs). */
    virtual void check(std::size_t /*i*/, OpResult & /*r*/) {}

    /** Largest |pred - exact| / exact seen so far (0 = none). */
    virtual double predMaxRelErr() const { return 0; }

    /** Number of predictions compared against exact results. */
    virtual std::uint64_t predChecks() const { return 0; }

    /** True when the ops query surrogate-on sessions. */
    virtual bool surrogateOn() const { return false; }
};

/** Workload names, in the order a full pass runs them. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name over inputs drawn from @p seed. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perf

#endif // ASCEND_PERF_PERF_HH
