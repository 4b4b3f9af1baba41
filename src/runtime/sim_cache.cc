/**
 * @file
 * Simulation cache implementation.
 */

#include "runtime/sim_cache.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"

namespace ascend {
namespace runtime {

namespace {

/** Append an integer field. */
void
put(std::string &s, std::uint64_t v)
{
    s += std::to_string(v);
    s += ',';
}

/**
 * Append a double bit-exactly (decimal formatting would round and
 * alias distinct sweep points onto one key).
 */
void
putDouble(std::string &s, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put(s, bits);
}

/// @{ On-disk cache format primitives. Every scalar is a raw
/// little-fixed-width u64 in host byte order (cache files are
/// machine-local, not an interchange format).
constexpr char kFileMagic[8] = {'A', 'S', 'C', 'S',
                                'I', 'M', 'C', '\n'};
constexpr std::uint64_t kFileFormatVersion = 2;

void
writeU64(std::string &buf, std::uint64_t v)
{
    char raw[sizeof(v)];
    std::memcpy(raw, &v, sizeof(v));
    buf.append(raw, sizeof(v));
}

void
writeBytes(std::string &buf, const std::string &s)
{
    writeU64(buf, s.size());
    buf.append(s);
}

void
writeResult(std::string &buf, const core::SimResult &r)
{
    // Field-wise, never a struct memcpy: padding bytes would leak
    // into the file and any layout change would silently corrupt.
    writeU64(buf, r.totalCycles);
    writeU64(buf, r.totalFlops);
    writeU64(buf, r.instrsExecuted);
    writeU64(buf, r.barriers);
    for (const core::PipeStats &p : r.pipes) {
        writeU64(buf, p.busyCycles);
        writeU64(buf, p.finishCycle);
        writeU64(buf, p.waitCycles);
        writeU64(buf, p.instrs);
    }
    for (Bytes b : r.busBytes)
        writeU64(buf, b);
}

/** Bounds-checked cursor over a loaded file image. */
struct FileReader
{
    const std::string &data;
    std::size_t pos = 0;

    bool
    readU64(std::uint64_t &v)
    {
        if (data.size() - pos < sizeof(v))
            return false;
        std::memcpy(&v, data.data() + pos, sizeof(v));
        pos += sizeof(v);
        return true;
    }

    bool
    readBytes(std::string &s, std::size_t max_len)
    {
        std::uint64_t len = 0;
        if (!readU64(len) || len > max_len ||
            data.size() - pos < len)
            return false;
        s.assign(data.data() + pos, std::size_t(len));
        pos += std::size_t(len);
        return true;
    }

    bool
    readResult(core::SimResult &r)
    {
        std::uint64_t v = 0;
        if (!readU64(v))
            return false;
        r.totalCycles = v;
        if (!readU64(v))
            return false;
        r.totalFlops = v;
        if (!readU64(v))
            return false;
        r.instrsExecuted = v;
        if (!readU64(r.barriers))
            return false;
        for (core::PipeStats &p : r.pipes) {
            if (!readU64(p.busyCycles) ||
                !readU64(p.finishCycle) ||
                !readU64(p.waitCycles) || !readU64(p.instrs))
                return false;
        }
        for (Bytes &b : r.busBytes)
            if (!readU64(b))
                return false;
        return true;
    }
};

/** Longest key the loader accepts (a corrupt length must not OOM). */
constexpr std::size_t kMaxKeyLen = 1 << 20;

} // anonymous namespace

std::string
fingerprint(const arch::CoreConfig &config)
{
    std::string s;
    s.reserve(160);
    s += "cfg:";
    put(s, std::uint64_t(config.version));
    putDouble(s, config.clockGhz);
    put(s, config.cube.m0);
    put(s, config.cube.k0);
    put(s, config.cube.n0);
    put(s, config.supportsFp16);
    put(s, config.supportsInt8);
    put(s, config.supportsInt4);
    put(s, config.supportsFp32Cube);
    put(s, config.vectorWidthBytes);
    put(s, config.busABytesPerCycle);
    put(s, config.busBBytesPerCycle);
    put(s, config.busUbBytesPerCycle);
    put(s, config.busExtBytesPerCycle);
    put(s, config.l0aBytes);
    put(s, config.l0bBytes);
    put(s, config.l0cBytes);
    put(s, config.l1Bytes);
    put(s, config.ubBytes);
    put(s, config.dispatchPerCycle);
    return s;
}

std::string
fingerprint(const compiler::CompileOptions &options)
{
    std::string s;
    s.reserve(48);
    s += "opt:";
    put(s, options.pipelineDepth);
    putDouble(s, options.sparsity.weightDensity);
    put(s, options.sparsity.structured);
    put(s, options.chargeExtTraffic);
    put(s, options.mapGemmToVector);
    return s;
}

std::string
fingerprint(const model::Layer &layer)
{
    std::string s;
    s.reserve(128);
    s += "lay:";
    put(s, std::uint64_t(layer.kind));
    put(s, std::uint64_t(layer.dtype));
    put(s, layer.batch);
    put(s, layer.inC);
    put(s, layer.outC);
    put(s, layer.inH);
    put(s, layer.inW);
    put(s, layer.kernelH);
    put(s, layer.kernelW);
    put(s, layer.strideH);
    put(s, layer.strideW);
    put(s, layer.padH);
    put(s, layer.padW);
    put(s, layer.gemmM);
    put(s, layer.gemmK);
    put(s, layer.gemmN);
    put(s, layer.matmulCount);
    put(s, layer.elems);
    put(s, layer.rowLen);
    putDouble(s, layer.cvPasses);
    putDouble(s, layer.fusedEvictPasses);
    put(s, std::uint64_t(layer.act));
    put(s, layer.inputBytesOverride);
    put(s, layer.outputBytesOverride);
    return s;
}

bool
parseLayerFingerprint(const std::string &key, model::Layer &out)
{
    // The layer fingerprint is always the final component of a
    // session key, so take the last "lay:".
    const std::size_t at = key.rfind("lay:");
    if (at == std::string::npos)
        return false;
    const char *p = key.c_str() + at + 4;
    const char *end = key.c_str() + key.size();

    // 24 comma-terminated u64 fields, in fingerprint(layer) order.
    std::uint64_t f[24];
    for (std::uint64_t &v : f) {
        if (p >= end)
            return false;
        char *stop = nullptr;
        v = std::strtoull(p, &stop, 10);
        if (stop == p || stop >= end || *stop != ',')
            return false;
        p = stop + 1;
    }
    if (p != end)
        return false;
    if (f[0] > std::uint64_t(model::LayerKind::CvOp) ||
        f[1] > std::uint64_t(DataType::Fp32) ||
        f[21] > std::uint64_t(model::ActKind::Swish))
        return false;

    auto asDouble = [](std::uint64_t bits) {
        double d;
        static_assert(sizeof(d) == sizeof(bits));
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    };
    out = model::Layer{};
    out.kind = model::LayerKind(f[0]);
    out.dtype = DataType(f[1]);
    out.batch = unsigned(f[2]);
    out.inC = unsigned(f[3]);
    out.outC = unsigned(f[4]);
    out.inH = unsigned(f[5]);
    out.inW = unsigned(f[6]);
    out.kernelH = unsigned(f[7]);
    out.kernelW = unsigned(f[8]);
    out.strideH = unsigned(f[9]);
    out.strideW = unsigned(f[10]);
    out.padH = unsigned(f[11]);
    out.padW = unsigned(f[12]);
    out.gemmM = f[13];
    out.gemmK = f[14];
    out.gemmN = f[15];
    out.matmulCount = f[16];
    out.elems = f[17];
    out.rowLen = f[18];
    out.cvPasses = asDouble(f[19]);
    out.fusedEvictPasses = asDouble(f[20]);
    out.act = model::ActKind(f[21]);
    out.inputBytesOverride = f[22];
    out.outputBytesOverride = f[23];
    return true;
}

std::string
fingerprint(const resilience::ResilienceOptions &options)
{
    std::string s;
    s.reserve(48);
    s += "res:";
    put(s, options.enabled);
    put(s, options.faultSeed);
    putDouble(s, options.stragglerSlowdown);
    put(s, options.scenario.size());
    s += options.scenario;
    return s;
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

void
SimCache::forEach(const std::function<void(const std::string &,
                                           const core::SimResult &)>
                      &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string &key : lru_) // MRU first, like saveFile
        fn(key, map_.at(key).value);
}

std::string
SimCache::summary() const
{
    const Stats s = stats();
    std::ostringstream os;
    os << "sim-cache: " << s.hits << " hits, " << s.misses
       << " misses, " << s.entries << " entries, " << s.evictions
       << " evictions (" << int(100.0 * s.hitRate() + 0.5)
       << "% hit rate)";
    if (s.diskLoads || s.diskStores)
        os << " [disk: " << s.diskLoads << " loaded, "
           << s.diskStores << " stored]";
    return os.str();
}

const char *
SimCache::codeVersion()
{
    // Manually bumped when compilation or simulation semantics
    // change (anything that can alter a SimResult for an unchanged
    // fingerprint). The fingerprints themselves already separate
    // config/option/layer changes; this guards the code.
    return "ascend-sim-4";
}

std::string
SimCache::filePath(const std::string &dir)
{
    // One fixed name; the version lives in the header (checked on
    // load), not the name, so stale files are reclaimed by overwrite
    // instead of accumulating.
    return dir + "/sim_cache.bin";
}

std::size_t
SimCache::loadFile(const std::string &path, const std::string &version)
{
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return 0;
        std::ostringstream os;
        os << in.rdbuf();
        data = os.str();
    }

    FileReader r{data};
    if (data.size() < sizeof(kFileMagic) ||
        std::memcmp(data.data(), kFileMagic, sizeof(kFileMagic)) != 0)
        return 0;
    r.pos = sizeof(kFileMagic);

    std::uint64_t format = 0, pipes = 0, buses = 0, count = 0;
    std::string file_version;
    if (!r.readU64(format) || format != kFileFormatVersion ||
        !r.readU64(pipes) || pipes != isa::kNumPipes ||
        !r.readU64(buses) || buses != isa::kNumBuses ||
        !r.readBytes(file_version, kMaxKeyLen) ||
        file_version != version || !r.readU64(count))
        return 0;

    std::size_t loaded = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string key;
        core::SimResult value;
        // A short or corrupt tail ends the load; entries already
        // validated stay (each is self-contained and deterministic).
        if (!r.readBytes(key, kMaxKeyLen) || !r.readResult(value))
            break;
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.value = value;
            continue;
        }
        lru_.push_back(key); // file order is hot-first; append keeps it
        map_.emplace(key, Entry{value, std::prev(lru_.end())});
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
    std::string buf;
    std::uint64_t stored = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buf.reserve(64 + map_.size() * 256);
        buf.append(kFileMagic, sizeof(kFileMagic));
        writeU64(buf, kFileFormatVersion);
        writeU64(buf, isa::kNumPipes);
        writeU64(buf, isa::kNumBuses);
        writeBytes(buf, version);
        writeU64(buf, map_.size());
        for (const std::string &key : lru_) { // MRU first
            writeBytes(buf, key);
            writeResult(buf, map_.at(key).value);
        }
        stored = map_.size();
    }

    // Readers only ever see a complete file. (loadFile would also
    // tolerate a zeroed tail — entries are length-prefixed and
    // validated — but the synced write keeps the common case whole.)
    if (!writeFileAtomic(path, buf))
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    diskStores_ += stored;
    return true;
}

} // namespace runtime
} // namespace ascend
