/**
 * @file
 * Text serialization for core configurations.
 *
 * A downstream user exploring the design space (Section 2.3) wants to
 * edit parameters in a file, not recompile. The format is flat
 * `key = value` lines with `#` comments — trivially diffable and
 * stable. The keys are arch::forEachField's, so a written file names
 * every field, doubles exactly (%.17g): read back over any base it
 * restores the same machine and the same SimCache key. Unknown keys
 * are an error (they are usually typos of knobs the user meant to
 * change), and so is a value its field cannot hold.
 */

#ifndef ASCEND_ARCH_CONFIG_IO_HH
#define ASCEND_ARCH_CONFIG_IO_HH

#include <iosfwd>
#include <string>

#include "arch/core_config.hh"

namespace ascend {
namespace arch {

/** Write every field of @p config as `key = value` lines. */
void writeConfig(const CoreConfig &config, std::ostream &os);

/** Serialize to a string (convenience). */
std::string configToString(const CoreConfig &config);

/**
 * Parse a configuration: starts from @p base and applies every
 * `key = value` line in @p is. Throws ascend::Error with code
 * ConfigParse on unknown keys or malformed values (user error, and
 * callers can recover); the result is validate()d, which throws
 * ConfigValidation on out-of-range fields.
 */
CoreConfig readConfig(std::istream &is,
                      const CoreConfig &base = makeCoreConfig(
                          CoreVersion::Max));

/** Parse from a string (convenience). */
CoreConfig configFromString(const std::string &text,
                            const CoreConfig &base = makeCoreConfig(
                                CoreVersion::Max));

} // namespace arch
} // namespace ascend

#endif // ASCEND_ARCH_CONFIG_IO_HH
