/**
 * @file
 * The one durable-bytes layer: crash-safe whole-file replacement, the
 * whole-file read, and the framing every on-disk format shares (the
 * ASCCKPT elastic and ASCBLOB serving checkpoints written through
 * resilience/run_journal).
 *
 * A framed file is, in order:
 *  1. an 8-byte magic naming the format;
 *  2. the format version (u64);
 *  3. the identity the reader must match, length-prefixed;
 *  4. the body, length-prefixed;
 *  5. a u64 FNV-1a over every byte before it.
 * Fields use common/codec. The reader verifies the checksum before it
 * parses anything after the magic, so a flipped bit anywhere is one
 * clean refusal, and it fails closed: a file is adopted whole or not
 * at all.
 */

#ifndef ASCEND_COMMON_ATOMIC_FILE_HH
#define ASCEND_COMMON_ATOMIC_FILE_HH

#include <cstdint>
#include <optional>
#include <string>

namespace ascend {

/**
 * Replace @p path with @p bytes so that readers, and a reboot after a
 * power loss, see either the old file or the complete new one:
 * create the parent directory, write "<path>.tmp.<pid>", fsync it,
 * rename it over @p path, then fsync the parent directory so the
 * rename itself is durable. The temp name is per-process, so two
 * writers never share a temp file; the loser of a race is replaced
 * wholesale rather than interleaved.
 *
 * @return false on any I/O failure, leaving @p path untouched and no
 *         temp file behind.
 */
bool writeFileAtomic(const std::string &path, const std::string &bytes);

/** The whole file at @p path, or nothing when it cannot be opened. */
std::optional<std::string> readFile(const std::string &path);

/** Outcome of readFramed(): Ok, or the one reason for refusing. */
enum class FrameStatus
{
    Ok,
    Missing,          ///< no readable file (a normal cold start)
    Short,            ///< shorter than its framing says it is
    BadMagic,         ///< another format's file, or none at all
    ChecksumMismatch, ///< any byte changed since it was written
    UnknownVersion,   ///< another format version
    ForeignIdentity,  ///< written for another run or code version
    TrailingBytes,    ///< bytes between the body and the checksum
    BadBody,          ///< an intact frame whose body its format refuses
};

/** Short human-readable refusal reason ("checksum mismatch", ...). */
const char *toString(FrameStatus status);

/** Frame @p body and save it through writeFileAtomic(). */
bool writeFramed(const std::string &path, const char (&magic)[8],
                 std::uint64_t version, const std::string &identity,
                 const std::string &body);

/**
 * Read a framed file and check, in order: presence, length, @p magic,
 * checksum, @p version, @p identity and the exact end. Sets @p body
 * only when the whole frame verifies.
 */
FrameStatus readFramed(const std::string &path, const char (&magic)[8],
                       std::uint64_t version,
                       const std::string &identity, std::string &body);

} // namespace ascend

#endif // ASCEND_COMMON_ATOMIC_FILE_HH
