/**
 * @file
 * Simulation cache implementation.
 */

#include "runtime/sim_cache.hh"

#include <type_traits>

#include "common/field.hh"

namespace ascend {
namespace runtime {

std::string
fingerprint(const arch::CoreConfig &config)
{
    std::string s;
    s.reserve(160);
    s += "cfg:";
    arch::forEachField(
        [&s](const char *, const auto &v) {
            // The name is cosmetic: equal machines share entries.
            if constexpr (!std::is_same_v<std::decay_t<decltype(v)>,
                                          std::string>)
                putU64(s, fieldBits(v));
        },
        config);
    return s;
}

std::string
fingerprint(const compiler::CompileOptions &options)
{
    return fieldKey(options);
}

std::string
fingerprint(const model::Layer &layer)
{
    std::string s;
    s.reserve(128);
    s += "lay:";
    putU64(s, std::uint64_t(layer.kind));
    model::forEachField(
        [&s](const char *, auto v) { putU64(s, fieldBits(v)); }, layer);
    return s;
}

std::string
fingerprint(const resilience::ResilienceOptions &options)
{
    return fieldKey(options);
}

SimCache::SimCache(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
}

bool
SimCache::lookup(const std::string &key, core::SimResult &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    out = it->second.value;
    return true;
}

void
SimCache::insert(const std::string &key, const core::SimResult &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Concurrent misses on one key both simulate; the results
        // are identical, so last-writer-wins is safe.
        it->second.value = value;
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{value, lru_.begin()});
    while (map_.size() > capacity_) {
        map_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
    }
}

SimCache::Stats
SimCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = map_.size();
    return s;
}

void
SimCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
}

} // namespace runtime
} // namespace ascend
