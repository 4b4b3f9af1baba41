/**
 * @file
 * Crash-safe whole-file replacement.
 */

#include "common/atomic_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

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

} // namespace ascend
