/**
 * @file
 * Checkpoint serialization: field-wise bodies in the shared frame.
 */

#include "resilience/checkpoint.hh"

#include <array>
#include <filesystem>

#include "common/atomic_file.hh"
#include "common/codec.hh"
#include "common/error.hh"

namespace ascend {
namespace resilience {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'C', 'C', 'K', 'P', 'T', '\n'};
constexpr char kBlobMagic[8] = {'A', 'S', 'C', 'B', 'L', 'O', 'B', '\n'};
constexpr std::uint64_t kFormatVersion = 2;
constexpr std::uint64_t kBlobFormatVersion = 1;

/** Longest event log the loader accepts (corrupt lengths must not OOM). */
constexpr std::size_t kMaxStringLen = std::size_t(1) << 24;

/** The counters in their on-disk order. */
std::array<std::uint64_t *, 10>
counterFields(ElasticCounters &c)
{
    return {&c.failovers,     &c.shrinks,        &c.rollbacks,
            &c.replayedSteps, &c.speculations,   &c.retries,
            &c.degradedSteps, &c.sparesUsed,     &c.spareExhausted,
            &c.checkpointsSaved};
}

std::string
encode(const RunCheckpoint &s)
{
    std::string buf;
    buf.reserve(192 + s.eventLog.size() +
                s.activeNodes.size() * sizeof(std::uint64_t));
    writeU64(buf, s.sequence);
    writeU64(buf, s.nextStep);
    writeDouble(buf, s.simTimeSec);
    writeU64(buf, s.activeNodes.size());
    for (std::uint32_t node : s.activeNodes)
        writeU64(buf, node);
    writeU64(buf, s.sparesLeft);
    writeU64(buf, s.lastCheckpointStep);
    writeDouble(buf, s.lastCheckpointSec);
    writeU64(buf, s.nodeEventCursor);
    writeU64(buf, s.eccEventCursor);
    ElasticCounters counters = s.counters;
    for (const std::uint64_t *v : counterFields(counters))
        writeU64(buf, *v);
    writeBytes(buf, s.eventLog);
    return buf;
}

/** Inverse of encode(); false unless @p body parses to its exact end. */
bool
decode(const std::string &body, const std::string &run_id,
       RunCheckpoint &out)
{
    ByteReader r{body};
    RunCheckpoint s;
    s.runId = run_id;
    std::uint64_t nodes = 0;
    if (!r.readU64(s.sequence) || !r.readU64(s.nextStep) ||
        !r.readDouble(s.simTimeSec) ||
        !r.readCount(nodes, sizeof(std::uint64_t)))
        return false;
    s.activeNodes.resize(std::size_t(nodes));
    for (std::uint32_t &node : s.activeNodes) {
        std::uint64_t v = 0;
        if (!r.readU64(v))
            return false;
        node = std::uint32_t(v);
    }
    if (!r.readU64(s.sparesLeft) || !r.readU64(s.lastCheckpointStep) ||
        !r.readDouble(s.lastCheckpointSec) ||
        !r.readU64(s.nodeEventCursor) || !r.readU64(s.eccEventCursor))
        return false;
    for (std::uint64_t *v : counterFields(s.counters))
        if (!r.readU64(*v))
            return false;
    if (!r.readBytes(s.eventLog, kMaxStringLen) || !r.atEnd())
        return false;
    out = std::move(s);
    return true;
}

/**
 * The Checked loaders' contract: true for an intact frame, false for
 * a missing file (a normal cold start), and a CheckpointCorrupt
 * error naming any other refusal.
 */
bool
intactOrThrow(FrameStatus status, const std::string &path)
{
    if (status == FrameStatus::Missing)
        return false;
    if (status != FrameStatus::Ok)
        throw Error(ErrorCode::CheckpointCorrupt,
                    std::string(toString(status)) + ": " + path);
    return true;
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
    return writeFramed(path(), kMagic, kFormatVersion, state.runId,
                       encode(state));
}

bool
CheckpointStore::load(RunCheckpoint &out,
                      const std::string &run_id) const
{
    std::string body;
    return readFramed(path(), kMagic, kFormatVersion, run_id, body) ==
               FrameStatus::Ok &&
           decode(body, run_id, out);
}

bool
CheckpointStore::loadChecked(RunCheckpoint &out,
                             const std::string &run_id) const
{
    std::string body;
    if (!intactOrThrow(
            readFramed(path(), kMagic, kFormatVersion, run_id, body),
            path()))
        return false;
    if (!decode(body, run_id, out))
        throw Error(ErrorCode::CheckpointCorrupt,
                    "malformed body: " + path());
    return true;
}

bool
CheckpointStore::saveBlob(const std::string &run_id,
                          const std::string &payload) const
{
    return writeFramed(path(), kBlobMagic, kBlobFormatVersion, run_id,
                       payload);
}

bool
CheckpointStore::loadBlob(std::string &payload,
                          const std::string &run_id) const
{
    return readFramed(path(), kBlobMagic, kBlobFormatVersion, run_id,
                      payload) == FrameStatus::Ok;
}

bool
CheckpointStore::loadBlobChecked(std::string &payload,
                                 const std::string &run_id) const
{
    return intactOrThrow(readFramed(path(), kBlobMagic,
                                    kBlobFormatVersion, run_id, payload),
                         path());
}

void
CheckpointStore::remove() const
{
    std::error_code ec;
    std::filesystem::remove(path(), ec);
}

} // namespace resilience
} // namespace ascend
