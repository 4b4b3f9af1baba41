/**
 * @file
 * Per-run pipe trace: the caller-owned event collector the core
 * simulator fills when a run wants its own isolated trace (the
 * paper's Fig. 3 pipe-overlap picture for one program).
 *
 * Same event model as the process-wide obs::Tracer (one span per
 * executed instruction), but scoped to a single CoreSim::run call and
 * always on when passed. Use obs::Tracer + ASCEND_TRACE for
 * whole-process traces across all simulator layers.
 */

#ifndef ASCEND_OBS_PIPE_TRACE_HH
#define ASCEND_OBS_PIPE_TRACE_HH

#include <ostream>
#include <vector>

#include "isa/instruction.hh"

namespace ascend {
namespace obs {

/** One executed instruction. */
struct PipeTraceEvent
{
    isa::Pipe pipe;
    Cycles start;
    Cycles duration;
    const char *tag; ///< static label from the compiler; may be null
};

/**
 * Event collector + Chrome JSON writer for one simulated program.
 */
class PipeTrace
{
  public:
    void
    add(isa::Pipe pipe, Cycles start, Cycles duration, const char *tag)
    {
        events_.push_back(PipeTraceEvent{pipe, start, duration, tag});
    }

    const std::vector<PipeTraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

    /**
     * Write Chrome trace-event JSON: one thread per pipe, one
     * complete ("X") event per instruction, timestamps in cycles
     * (microseconds field reused as cycles).
     */
    void writeChromeJson(std::ostream &os) const;

    /** Busy cycles recorded for @p pipe. */
    Cycles busyCycles(isa::Pipe pipe) const;

  private:
    std::vector<PipeTraceEvent> events_;
};

} // namespace obs
} // namespace ascend

#endif // ASCEND_OBS_PIPE_TRACE_HH
