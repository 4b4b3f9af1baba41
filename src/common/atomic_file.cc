/**
 * @file
 * Crash-safe file replacement, whole-file reads and the shared framing.
 */

#include "common/atomic_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/codec.hh"

namespace ascend {

namespace {

/** fsync @p path opened with @p flags. @return true on success. */
bool
syncPath(const std::string &path, int flags)
{
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0)
        return false;
    const int rc = ::fsync(fd);
    ::close(fd);
    return rc == 0;
}

} // anonymous namespace

bool
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path target(path);
    const fs::path dir =
        target.has_parent_path() ? target.parent_path() : fs::path(".");
    fs::create_directories(dir, ec);

    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    bool ok = false;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(bytes.data(), std::streamsize(bytes.size()));
        out.close(); // a failed final flush sets failbit here
        ok = bool(out);
    }
    // The rename orders the *name* but not the *bytes*: without the
    // fsync a power loss right after it could publish a
    // complete-looking file with a zeroed tail.
    ok = ok && syncPath(tmp, O_WRONLY);
    if (ok)
        fs::rename(tmp, target, ec);
    if (!ok || ec) {
        fs::remove(tmp, ec);
        return false;
    }
    // The rename lives in the directory entry; sync it too, or a
    // power loss can bring back the old file. Best effort: the new
    // bytes are already complete either way.
    syncPath(dir.string(), O_RDONLY | O_DIRECTORY);
    return true;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

const char *
toString(FrameStatus status)
{
    switch (status) {
      case FrameStatus::Ok:               return "ok";
      case FrameStatus::Missing:          return "missing";
      case FrameStatus::Short:            return "truncated frame";
      case FrameStatus::BadMagic:         return "bad magic";
      case FrameStatus::ChecksumMismatch: return "checksum mismatch";
      case FrameStatus::UnknownVersion:   return "unknown format version";
      case FrameStatus::ForeignIdentity:  return "foreign identity";
      case FrameStatus::TrailingBytes:    return "trailing bytes after body";
      case FrameStatus::BadBody:          return "malformed body";
    }
    return "?";
}

bool
writeFramed(const std::string &path, const char (&magic)[8],
            std::uint64_t version, const std::string &identity,
            const std::string &body)
{
    std::string buf;
    buf.reserve(sizeof(magic) + 4 * sizeof(std::uint64_t) +
                identity.size() + body.size());
    buf.append(magic, sizeof(magic));
    writeU64(buf, version);
    writeBytes(buf, identity);
    writeBytes(buf, body);
    writeU64(buf, fnv1a(buf.data(), buf.size()));
    return writeFileAtomic(path, buf);
}

FrameStatus
readFramed(const std::string &path, const char (&magic)[8],
           std::uint64_t version, const std::string &identity,
           std::string &body)
{
    std::optional<std::string> data = readFile(path);
    if (!data)
        return FrameStatus::Missing;
    constexpr std::size_t kU64 = sizeof(std::uint64_t);
    if (data->size() < sizeof(magic) + 4 * kU64)
        return FrameStatus::Short;
    if (std::memcmp(data->data(), magic, sizeof(magic)) != 0)
        return FrameStatus::BadMagic;

    // Verify the trailing checksum before parsing anything it covers.
    const std::size_t end = data->size() - kU64;
    std::uint64_t want = 0;
    std::memcpy(&want, data->data() + end, kU64);
    if (fnv1a(data->data(), end) != want)
        return FrameStatus::ChecksumMismatch;
    data->resize(end);

    ByteReader r{*data, sizeof(magic)};
    std::uint64_t got_version = 0;
    std::string got_identity, got_body;
    if (!r.readU64(got_version))
        return FrameStatus::Short;
    if (got_version != version)
        return FrameStatus::UnknownVersion;
    if (!r.readBytes(got_identity, end))
        return FrameStatus::Short;
    if (got_identity != identity)
        return FrameStatus::ForeignIdentity;
    if (!r.readBytes(got_body, end))
        return FrameStatus::Short;
    if (!r.atEnd())
        return FrameStatus::TrailingBytes;
    body = std::move(got_body);
    return FrameStatus::Ok;
}

} // namespace ascend
