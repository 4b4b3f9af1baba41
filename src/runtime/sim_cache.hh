/**
 * @file
 * Content-addressed memo of core simulation results.
 *
 * Every sweep bench re-simulates identical (core config, compile
 * options, layer shape) triples dozens of times — ResNet50 alone
 * repeats the same bottleneck block shapes across its stages, and a
 * config sweep re-runs every unchanged layer per design point. The
 * simulator is deterministic and SimResult captures its complete
 * output, so the triple fully determines the result and can be
 * memoized.
 *
 * Keys are exact serializations of every field that can influence
 * compilation or simulation (no lossy hashing beyond the hash map's
 * own bucketing, so collisions cannot corrupt results). Every key
 * walks its record's one field list (model::forEachField,
 * arch::forEachField and those of CompileOptions and
 * ResilienceOptions), so a field added there is keyed without
 * touching this file. Layer and network *names* are
 * deliberately excluded: two layers with the same shape share one
 * entry, which is where the hit rate comes from.
 *
 * The cache is thread-safe (one mutex; the guarded work is a map
 * probe, orders of magnitude cheaper than the simulation it saves)
 * and LRU-bounded. Hit/miss/eviction counters are exposed for
 * observability (ASCEND_SIM_STATS=1 prints them from the benches).
 */

#ifndef ASCEND_RUNTIME_SIM_CACHE_HH
#define ASCEND_RUNTIME_SIM_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/core_config.hh"
#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"
#include "model/layer.hh"
#include "resilience/policy.hh"

namespace ascend {
namespace runtime {

/**
 * Exact fingerprint of every CoreConfig field the compiler or
 * simulator reads (the name is cosmetic and excluded).
 */
std::string fingerprint(const arch::CoreConfig &config);

/** Exact fingerprint of a CompileOptions value. */
std::string fingerprint(const compiler::CompileOptions &options);

/** Exact shape fingerprint of a layer (name excluded). */
std::string fingerprint(const model::Layer &layer);

/**
 * Exact fingerprint of resilience options. Sessions mix this into
 * their key so fault-injected runs never alias fault-free entries.
 */
std::string fingerprint(const resilience::ResilienceOptions &options);

/**
 * Thread-safe LRU memo: fingerprint key -> SimResult.
 */
class SimCache
{
  public:
    /** Counter snapshot. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t entries = 0;

        double
        hitRate() const
        {
            const std::uint64_t total = hits + misses;
            return total ? double(hits) / double(total) : 0.0;
        }
    };

    /** Entry bound; the default comfortably holds every zoo sweep. */
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    explicit SimCache(std::size_t capacity = kDefaultCapacity);

    /**
     * Probe for @p key. On hit copies the memoized result into
     * @p out, refreshes recency, and returns true; counts a miss and
     * returns false otherwise.
     */
    bool lookup(const std::string &key, core::SimResult &out);

    /**
     * Memoize @p value under @p key (overwrites an existing entry
     * with the identical deterministic value). Evicts the least
     * recently used entry when the bound is exceeded.
     */
    void insert(const std::string &key, const core::SimResult &value);

    Stats stats() const;

    /** Drop all entries; counters survive (they are cumulative). */
    void clear();

  private:
    struct Entry
    {
        core::SimResult value;
        std::list<std::string>::iterator lruPos;
    };

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::unordered_map<std::string, Entry> map_;
    std::list<std::string> lru_; ///< front = most recently used
};

} // namespace runtime
} // namespace ascend

#endif // ASCEND_RUNTIME_SIM_CACHE_HH
