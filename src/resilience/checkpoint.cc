/**
 * @file
 * Checkpoint serialization: field-wise, versioned, checksummed.
 */

#include "resilience/checkpoint.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/error.hh"

namespace ascend {
namespace resilience {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'C', 'C', 'K', 'P', 'T', '\n'};
constexpr char kBlobMagic[8] = {'A', 'S', 'C', 'B', 'L', 'O', 'B', '\n'};
constexpr std::uint64_t kFormatVersion = 1;

/** Longest string the loader accepts (corrupt lengths must not OOM). */
constexpr std::size_t kMaxStringLen = std::size_t(1) << 24;

void
writeU64(std::string &buf, std::uint64_t v)
{
    char raw[sizeof(v)];
    std::memcpy(raw, &v, sizeof(v));
    buf.append(raw, sizeof(v));
}

void
writeDouble(std::string &buf, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(v));
    writeU64(buf, bits);
}

void
writeString(std::string &buf, const std::string &s)
{
    writeU64(buf, s.size());
    buf.append(s);
}

/** FNV-1a over @p data — cheap, deterministic, endian-stable here. */
std::uint64_t
checksum(const char *data, std::size_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct Reader
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
    readDouble(double &v)
    {
        std::uint64_t bits = 0;
        if (!readU64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    bool
    readString(std::string &s)
    {
        std::uint64_t len = 0;
        if (!readU64(len) || len > kMaxStringLen ||
            data.size() - pos < len)
            return false;
        s.assign(data.data() + pos, std::size_t(len));
        pos += std::size_t(len);
        return true;
    }
};

void
writeCounters(std::string &buf, const ElasticCounters &c)
{
    writeU64(buf, c.failovers);
    writeU64(buf, c.shrinks);
    writeU64(buf, c.rollbacks);
    writeU64(buf, c.replayedSteps);
    writeU64(buf, c.speculations);
    writeU64(buf, c.retries);
    writeU64(buf, c.degradedSteps);
    writeU64(buf, c.sparesUsed);
    writeU64(buf, c.spareExhausted);
    writeU64(buf, c.checkpointsSaved);
}

bool
readCounters(Reader &r, ElasticCounters &c)
{
    return r.readU64(c.failovers) && r.readU64(c.shrinks) &&
           r.readU64(c.rollbacks) && r.readU64(c.replayedSteps) &&
           r.readU64(c.speculations) && r.readU64(c.retries) &&
           r.readU64(c.degradedSteps) && r.readU64(c.sparesUsed) &&
           r.readU64(c.spareExhausted) &&
           r.readU64(c.checkpointsSaved);
}

} // anonymous namespace

bool
ElasticCounters::operator==(const ElasticCounters &o) const
{
    return failovers == o.failovers && shrinks == o.shrinks &&
           rollbacks == o.rollbacks &&
           replayedSteps == o.replayedSteps &&
           speculations == o.speculations && retries == o.retries &&
           degradedSteps == o.degradedSteps &&
           sparesUsed == o.sparesUsed &&
           spareExhausted == o.spareExhausted &&
           checkpointsSaved == o.checkpointsSaved;
}

bool
RunCheckpoint::operator==(const RunCheckpoint &o) const
{
    return runId == o.runId && sequence == o.sequence &&
           nextStep == o.nextStep && simTimeSec == o.simTimeSec &&
           activeNodes == o.activeNodes &&
           sparesLeft == o.sparesLeft &&
           lastCheckpointStep == o.lastCheckpointStep &&
           lastCheckpointSec == o.lastCheckpointSec &&
           nodeEventCursor == o.nodeEventCursor &&
           eccEventCursor == o.eccEventCursor &&
           counters == o.counters && eventLog == o.eventLog;
}

CheckpointStore::CheckpointStore(std::string dir, std::string name)
    : dir_(std::move(dir)), name_(std::move(name))
{
}

std::string
CheckpointStore::path() const
{
    return dir_ + "/" + name_ + ".ckpt";
}

bool
CheckpointStore::save(const RunCheckpoint &state) const
{
    std::string buf;
    buf.reserve(256 + state.eventLog.size() +
                state.activeNodes.size() * sizeof(std::uint64_t));
    buf.append(kMagic, sizeof(kMagic));
    writeU64(buf, kFormatVersion);
    writeString(buf, state.runId);
    writeU64(buf, state.sequence);
    writeU64(buf, state.nextStep);
    writeDouble(buf, state.simTimeSec);
    writeU64(buf, state.activeNodes.size());
    for (std::uint32_t node : state.activeNodes)
        writeU64(buf, node);
    writeU64(buf, state.sparesLeft);
    writeU64(buf, state.lastCheckpointStep);
    writeDouble(buf, state.lastCheckpointSec);
    writeU64(buf, state.nodeEventCursor);
    writeU64(buf, state.eccEventCursor);
    writeCounters(buf, state.counters);
    writeString(buf, state.eventLog);
    writeU64(buf, checksum(buf.data(), buf.size()));

    return writeFileAtomic(path(), buf);
}

namespace {

/**
 * Read the store file and validate frame + checksum against
 * @p magic. @return one of: "missing" (no readable file), a refusal
 * reason, or nullptr with @p data / @p body set (body = offset of the
 * trailing checksum).
 */
const char *
readFramed(const std::string &file, const char (&magic)[8],
           std::string &data, std::size_t &body)
{
    {
        std::ifstream in(file, std::ios::binary);
        if (!in)
            return "missing";
        std::ostringstream os;
        os << in.rdbuf();
        data = os.str();
    }
    if (data.size() < sizeof(magic) + 2 * sizeof(std::uint64_t))
        return "file shorter than any valid checkpoint";
    if (std::memcmp(data.data(), magic, sizeof(magic)) != 0)
        return "bad magic";
    // The trailing checksum covers everything before it; verify it
    // first so a flipped bit anywhere is one clean refusal.
    body = data.size() - sizeof(std::uint64_t);
    std::uint64_t want = 0;
    std::memcpy(&want, data.data() + body, sizeof(want));
    if (checksum(data.data(), body) != want)
        return "checksum mismatch";
    return nullptr;
}

} // anonymous namespace

const char *
CheckpointStore::loadInternal(RunCheckpoint &out,
                              const std::string &run_id) const
{
    std::string data;
    std::size_t body = 0;
    if (const char *why = readFramed(path(), kMagic, data, body))
        return why;

    Reader r{data, sizeof(kMagic)};
    std::uint64_t format = 0;
    RunCheckpoint s;
    if (!r.readU64(format))
        return "truncated header";
    if (format != kFormatVersion)
        return "unknown format version";
    if (!r.readString(s.runId))
        return "truncated runId";
    if (s.runId != run_id)
        return "foreign runId";
    if (!r.readU64(s.sequence) || !r.readU64(s.nextStep) ||
        !r.readDouble(s.simTimeSec))
        return "truncated body";
    std::uint64_t nodes = 0;
    if (!r.readU64(nodes) || nodes > kMaxStringLen)
        return "implausible node count";
    s.activeNodes.reserve(std::size_t(nodes));
    for (std::uint64_t i = 0; i < nodes; ++i) {
        std::uint64_t node = 0;
        if (!r.readU64(node))
            return "truncated node list";
        s.activeNodes.push_back(std::uint32_t(node));
    }
    if (!r.readU64(s.sparesLeft) ||
        !r.readU64(s.lastCheckpointStep) ||
        !r.readDouble(s.lastCheckpointSec) ||
        !r.readU64(s.nodeEventCursor) ||
        !r.readU64(s.eccEventCursor) || !readCounters(r, s.counters) ||
        !r.readString(s.eventLog))
        return "truncated body";
    if (r.pos != body)
        return "trailing bytes after body";
    out = std::move(s);
    return nullptr;
}

bool
CheckpointStore::load(RunCheckpoint &out,
                      const std::string &run_id) const
{
    return loadInternal(out, run_id) == nullptr;
}

bool
CheckpointStore::loadChecked(RunCheckpoint &out,
                             const std::string &run_id) const
{
    const char *why = loadInternal(out, run_id);
    if (why == nullptr)
        return true;
    if (std::strcmp(why, "missing") == 0)
        return false;
    throw Error(ErrorCode::CheckpointCorrupt,
                std::string(why) + ": " + path());
}

bool
CheckpointStore::saveBlob(const std::string &run_id,
                          const std::string &payload) const
{
    std::string buf;
    buf.reserve(64 + run_id.size() + payload.size());
    buf.append(kBlobMagic, sizeof(kBlobMagic));
    writeU64(buf, kFormatVersion);
    writeString(buf, run_id);
    writeString(buf, payload);
    writeU64(buf, checksum(buf.data(), buf.size()));
    return writeFileAtomic(path(), buf);
}

const char *
CheckpointStore::loadBlobInternal(std::string &payload,
                                  const std::string &run_id) const
{
    std::string data;
    std::size_t body = 0;
    if (const char *why = readFramed(path(), kBlobMagic, data, body))
        return why;
    Reader r{data, sizeof(kBlobMagic)};
    std::uint64_t format = 0;
    std::string id, out;
    if (!r.readU64(format))
        return "truncated header";
    if (format != kFormatVersion)
        return "unknown format version";
    if (!r.readString(id))
        return "truncated runId";
    if (id != run_id)
        return "foreign runId";
    if (!r.readString(out))
        return "truncated payload";
    if (r.pos != body)
        return "trailing bytes after body";
    payload = std::move(out);
    return nullptr;
}

bool
CheckpointStore::loadBlob(std::string &payload,
                          const std::string &run_id) const
{
    return loadBlobInternal(payload, run_id) == nullptr;
}

bool
CheckpointStore::loadBlobChecked(std::string &payload,
                                 const std::string &run_id) const
{
    const char *why = loadBlobInternal(payload, run_id);
    if (why == nullptr)
        return true;
    if (std::strcmp(why, "missing") == 0)
        return false;
    throw Error(ErrorCode::CheckpointCorrupt,
                std::string(why) + ": " + path());
}

void
CheckpointStore::remove() const
{
    std::error_code ec;
    std::filesystem::remove(path(), ec);
}

} // namespace resilience
} // namespace ascend
