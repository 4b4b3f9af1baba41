/**
 * @file
 * In-memory tracing for one test scope, for tests that read back the
 * spans a simulation recorded.
 */

#ifndef ASCEND_TESTS_SCOPED_TRACE_HH
#define ASCEND_TESTS_SCOPED_TRACE_HH

#include <string>

#include "obs/tracer.hh"

namespace ascend {

/**
 * RAII: an empty in-memory trace for the scope. The tracer state found
 * on entry (off, or on with its ASCEND_TRACE path) is restored after,
 * so the tests also run inside a traced process.
 */
class ScopedTrace
{
  public:
    ScopedTrace()
        : wasTracing_(obs::Tracer::enabled()),
          wasPath_(obs::Tracer::instance().path())
    {
        obs::Tracer::instance().stop();
        obs::Tracer::instance().start("");
    }

    ~ScopedTrace()
    {
        obs::Tracer::instance().stop();
        if (wasTracing_)
            obs::Tracer::instance().start(wasPath_);
    }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    const bool wasTracing_;
    const std::string wasPath_;
};

} // namespace ascend

#endif // ASCEND_TESTS_SCOPED_TRACE_HH
