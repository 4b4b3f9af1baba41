/**
 * @file
 * Simulation cache implementation.
 */

#include "runtime/sim_cache.hh"

#include <type_traits>
#include <vector>

#include "common/atomic_file.hh"
#include "common/field.hh"

namespace ascend {
namespace runtime {

namespace {

constexpr char kFileMagic[8] = {'A', 'S', 'C', 'S',
                                'I', 'M', 'C', '\n'};
constexpr std::uint64_t kFileFormatVersion = 3;

/**
 * The frame identity: a file is adopted only by the simulator code
 * version, and the pipe/bus array dimensions, that wrote it.
 */
std::string
fileIdentity(const std::string &version)
{
    std::string id = version;
    id += ':';
    putU64(id, isa::kNumPipes);
    putU64(id, isa::kNumBuses);
    return id;
}

/** One cache entry of the ASCSIMC v3 body, which is a vector of them. */
struct FileEntry
{
    std::string key;
    core::SimResult value;
};

template <typename F, RecordOf<FileEntry>... E>
void
forEachField(F &&f, E &...e)
{
    f("key", e.key...);
    f("value", e.value...);
}

} // anonymous namespace

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
    s.diskLoads = diskLoads_;
    s.diskStores = diskStores_;
    return s;
}

void
SimCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
}

const char *
SimCache::codeVersion()
{
    // Manually bumped when compilation or simulation semantics
    // change (anything that can alter a SimResult for an unchanged
    // fingerprint), or when a key's encoding changes so that an old
    // key would name a different record (ascend-sim-5: the word-
    // hashed Graph::fingerprint). The fingerprints themselves already
    // separate config/option/layer changes; this guards the code.
    return "ascend-sim-5";
}

std::string
SimCache::filePath(const std::string &dir)
{
    // One fixed name; the version lives in the frame identity
    // (checked on load), not the name, so stale files are reclaimed
    // by overwrite instead of accumulating.
    return dir + "/sim_cache.bin";
}

std::size_t
SimCache::loadFile(const std::string &path, const std::string &version)
{
    std::string body;
    if (readFramed(path, kFileMagic, kFileFormatVersion,
                   fileIdentity(version), body) != FrameStatus::Ok)
        return 0;

    // All or nothing: the whole body must parse before any entry is
    // adopted.
    ByteReader r{body};
    std::vector<FileEntry> entries;
    if (!decodeBody(r, entries) || !r.atEnd())
        return 0;
    // A record that breaks the pipe accounting every simulation obeys
    // is as malformed as a truncated one.
    for (const FileEntry &e : entries)
        for (const core::PipeStats &p : e.value.pipes)
            if (p.busyCycles > p.finishCycle ||
                p.finishCycle > e.value.totalCycles ||
                p.waitCycles > e.value.totalCycles - p.busyCycles)
                return 0;

    std::size_t loaded = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[key, value] : entries) {
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.value = value;
            continue;
        }
        lru_.push_back(key); // file order is hot-first; append keeps it
        map_.emplace(std::move(key), Entry{value, std::prev(lru_.end())});
        ++loaded;
        while (map_.size() > capacity_) {
            map_.erase(lru_.back());
            lru_.pop_back();
            ++evictions_;
        }
    }
    diskLoads_ += loaded;
    return loaded;
}

bool
SimCache::saveFile(const std::string &path, const std::string &version)
{
    std::string body;
    std::uint64_t stored = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // The encoding of a std::vector<FileEntry>, MRU first, written
        // field by field instead of copying the entries into one.
        encodeField(body, std::uint64_t(map_.size()));
        for (const std::string &key : lru_) {
            encodeField(body, key);
            encodeField(body, map_.at(key).value);
        }
        stored = map_.size();
    }
    if (!writeFramed(path, kFileMagic, kFileFormatVersion,
                     fileIdentity(version), body))
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    diskStores_ += stored;
    return true;
}

} // namespace runtime
} // namespace ascend
