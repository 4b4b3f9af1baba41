/**
 * @file
 * Golden-file comparison helpers shared by benches, tests, and CI.
 *
 * Every golden check in the tree funnels through one normalization
 * (trailing whitespace and CR stripped per line, exactly one final
 * newline) so a bench cannot pass locally and fail in CI over an
 * invisible byte. Mismatches render as a per-line diff, never a blob
 * compare.
 */

#ifndef ASCEND_COMMON_GOLDEN_HH
#define ASCEND_COMMON_GOLDEN_HH

#include <string>

namespace ascend {

/**
 * Canonical golden form of @p text: trailing spaces, tabs, and CRs
 * are stripped from every line and the text ends with exactly one
 * newline (empty input stays empty).
 */
std::string normalizeGolden(const std::string &text);

/**
 * Compare @p actual against @p expected after normalizing both.
 * @return empty string on match; otherwise a human-readable per-line
 * diff ("line N: expected ... / actual ...").
 */
std::string diffGolden(const std::string &expected,
                       const std::string &actual);

/** Write @p text to @p path. @return false on I/O failure. */
bool writeFileText(const std::string &path, const std::string &text);

} // namespace ascend

#endif // ASCEND_COMMON_GOLDEN_HH
