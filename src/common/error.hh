/**
 * @file
 * Structured, recoverable error reporting.
 *
 * logging.hh's fatal()/panic() terminate the process, which is right
 * for internal invariant violations but wrong for user input: a
 * service embedding this simulator must be able to reject one bad
 * config or layer without dying. ascend::Error carries a machine-
 * checkable ErrorCode plus a human-readable context string, so
 * callers (and tests) branch on the failure *kind* instead of
 * matching message substrings.
 *
 * Convention across the stack:
 *  - bad user input (configs, layer shapes, tile requests) throws
 *    ascend::Error with a specific code;
 *  - internal simulator bugs still panic() — they are not
 *    recoverable and must not be swallowed by a catch block.
 */

#ifndef ASCEND_COMMON_ERROR_HH
#define ASCEND_COMMON_ERROR_HH

#include <stdexcept>
#include <string>

namespace ascend {

/** Machine-checkable failure kinds. */
enum class ErrorCode {
    ConfigParse,      ///< malformed config text (bad token, unknown key)
    ConfigValidation, ///< config parsed but describes an invalid machine
    InvalidLayer,     ///< layer shape is degenerate or inconsistent
    TileTooLarge,     ///< requested tile exceeds the L0 buffers
    ParallelFailure,  ///< multiple tasks of one parallel loop threw
    FaultInjected,    ///< a simulated fault escalated to fail-stop
    GuardExceeded,    ///< a simulation event-count guard tripped
    KernelMisuse,     ///< des::Kernel API contract violated
    CheckpointCorrupt, ///< checkpoint artifact failed validation
    GraphInvalid,      ///< graph IR structure broken (cycle, dangling edge)
    GraphShapeMismatch, ///< graph tensor shapes inconsistent with a node
    CounterConflict,    ///< one counter name declared two different ways
};

/** Stable lower-case name of @p code (used in what() prefixes). */
const char *toString(ErrorCode code);

/**
 * A recoverable error with a code and context. what() renders as
 * "[<code>] <context>".
 */
class Error : public std::runtime_error
{
  public:
    Error(ErrorCode code, const std::string &context);

    ErrorCode code() const { return code_; }

    /** The message without the "[<code>] " prefix. */
    const std::string &context() const { return context_; }

  private:
    ErrorCode code_;
    std::string context_;
};

/** Throw an Error with a printf-formatted context string. */
[[noreturn]]
[[gnu::format(printf, 2, 3)]]
void throwError(ErrorCode code, const char *fmt, ...);

} // namespace ascend

#endif // ASCEND_COMMON_ERROR_HH
