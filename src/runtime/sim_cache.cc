/**
 * @file
 * Simulation cache implementation.
 */

#include "runtime/sim_cache.hh"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/atomic_file.hh"
#include "common/codec.hh"

namespace ascend {
namespace runtime {

namespace {

constexpr char kFileMagic[8] = {'A', 'S', 'C', 'S',
                                'I', 'M', 'C', '\n'};
constexpr std::uint64_t kFileFormatVersion = 3;

/** Longest key the loader accepts (a corrupt length must not OOM). */
constexpr std::size_t kMaxKeyLen = 1 << 20;

/** Encoded size of one SimResult: every field is one u64. */
constexpr std::size_t kResultBytes =
    sizeof(std::uint64_t) * (4 + 4 * isa::kNumPipes + isa::kNumBuses);

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

void
writeResult(std::string &buf, const core::SimResult &r)
{
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

bool
readResult(ByteReader &r, core::SimResult &out)
{
    if (!r.readU64(out.totalCycles) || !r.readU64(out.totalFlops) ||
        !r.readU64(out.instrsExecuted) || !r.readU64(out.barriers))
        return false;
    for (core::PipeStats &p : out.pipes)
        if (!r.readU64(p.busyCycles) || !r.readU64(p.finishCycle) ||
            !r.readU64(p.waitCycles) || !r.readU64(p.instrs))
            return false;
    for (Bytes &b : out.busBytes)
        if (!r.readU64(b))
            return false;
    return true;
}

} // anonymous namespace

std::string
fingerprint(const arch::CoreConfig &config)
{
    std::string s;
    s.reserve(160);
    s += "cfg:";
    putU64(s, std::uint64_t(config.version));
    putBits(s, config.clockGhz);
    putU64(s, config.cube.m0);
    putU64(s, config.cube.k0);
    putU64(s, config.cube.n0);
    putU64(s, config.supportsFp16);
    putU64(s, config.supportsInt8);
    putU64(s, config.supportsInt4);
    putU64(s, config.supportsFp32Cube);
    putU64(s, config.vectorWidthBytes);
    putU64(s, config.busABytesPerCycle);
    putU64(s, config.busBBytesPerCycle);
    putU64(s, config.busUbBytesPerCycle);
    putU64(s, config.busExtBytesPerCycle);
    putU64(s, config.l0aBytes);
    putU64(s, config.l0bBytes);
    putU64(s, config.l0cBytes);
    putU64(s, config.l1Bytes);
    putU64(s, config.ubBytes);
    putU64(s, config.dispatchPerCycle);
    return s;
}

std::string
fingerprint(const compiler::CompileOptions &options)
{
    std::string s;
    s.reserve(48);
    s += "opt:";
    putU64(s, options.pipelineDepth);
    putBits(s, options.sparsity.weightDensity);
    putU64(s, options.sparsity.structured);
    putU64(s, options.chargeExtTraffic);
    putU64(s, options.mapGemmToVector);
    return s;
}

std::string
fingerprint(const model::Layer &layer)
{
    std::string s;
    s.reserve(128);
    s += "lay:";
    putU64(s, std::uint64_t(layer.kind));
    putU64(s, std::uint64_t(layer.dtype));
    putU64(s, layer.batch);
    putU64(s, layer.inC);
    putU64(s, layer.outC);
    putU64(s, layer.inH);
    putU64(s, layer.inW);
    putU64(s, layer.kernelH);
    putU64(s, layer.kernelW);
    putU64(s, layer.strideH);
    putU64(s, layer.strideW);
    putU64(s, layer.padH);
    putU64(s, layer.padW);
    putU64(s, layer.gemmM);
    putU64(s, layer.gemmK);
    putU64(s, layer.gemmN);
    putU64(s, layer.matmulCount);
    putU64(s, layer.elems);
    putU64(s, layer.rowLen);
    putBits(s, layer.cvPasses);
    putBits(s, layer.fusedEvictPasses);
    putU64(s, std::uint64_t(layer.act));
    putU64(s, layer.inputBytesOverride);
    putU64(s, layer.outputBytesOverride);
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
    out.cvPasses = bitsDouble(f[19]);
    out.fusedEvictPasses = bitsDouble(f[20]);
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
    putU64(s, options.enabled);
    putU64(s, options.faultSeed);
    putBits(s, options.stragglerSlowdown);
    putU64(s, options.scenario.size());
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
    std::uint64_t count = 0;
    if (!r.readCount(count, sizeof(std::uint64_t) + kResultBytes))
        return 0;
    std::vector<std::pair<std::string, core::SimResult>> entries(
        static_cast<std::size_t>(count));
    for (auto &[key, value] : entries)
        if (!r.readBytes(key, kMaxKeyLen) || !readResult(r, value))
            return 0;
    if (!r.atEnd())
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
        body.reserve(8 + map_.size() * (64 + kResultBytes));
        writeU64(body, map_.size());
        for (const std::string &key : lru_) { // MRU first
            writeBytes(body, key);
            writeResult(body, map_.at(key).value);
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
