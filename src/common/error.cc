/**
 * @file
 * Structured error implementation.
 */

#include "common/error.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace ascend {

const char *
toString(ErrorCode code)
{
    switch (code) {
      case ErrorCode::ConfigParse:      return "config-parse";
      case ErrorCode::ConfigValidation: return "config-validation";
      case ErrorCode::InvalidLayer:     return "invalid-layer";
      case ErrorCode::TileTooLarge:     return "tile-too-large";
      case ErrorCode::ParallelFailure:  return "parallel-failure";
      case ErrorCode::FaultInjected:    return "fault-injected";
      case ErrorCode::GuardExceeded:    return "guard-exceeded";
      case ErrorCode::KernelMisuse:     return "kernel-misuse";
      case ErrorCode::CheckpointCorrupt: return "checkpoint-corrupt";
      case ErrorCode::GraphInvalid:      return "graph-invalid";
      case ErrorCode::GraphShapeMismatch: return "graph-shape-mismatch";
      case ErrorCode::CounterConflict:    return "counter-conflict";
    }
    return "unknown";
}

Error::Error(ErrorCode code, const std::string &context)
    : std::runtime_error(std::string("[") + toString(code) + "] " +
                         context),
      code_(code), context_(context)
{
}

void
throwError(ErrorCode code, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::vector<char> buf(len > 0 ? std::size_t(len) + 1 : 1);
    if (len > 0)
        std::vsnprintf(buf.data(), buf.size(), fmt, args);
    va_end(args);
    throw Error(code, std::string(buf.data()));
}

} // namespace ascend
