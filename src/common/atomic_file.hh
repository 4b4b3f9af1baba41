/**
 * @file
 * Crash-safe whole-file replacement, shared by every durable format
 * (the SimCache file and the CheckpointStore files).
 */

#ifndef ASCEND_COMMON_ATOMIC_FILE_HH
#define ASCEND_COMMON_ATOMIC_FILE_HH

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

} // namespace ascend

#endif // ASCEND_COMMON_ATOMIC_FILE_HH
