/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * The repo grew three hand-rolled event loops — the fluid chip sim's
 * re-solve loop, the elastic cluster engine's recovery state machine
 * and the serving fleet's arrival/completion/fault-poll loop — each
 * carrying its own determinism, checkpoint, and tracing contract.
 * This kernel is the one substrate they all run on:
 *
 *  - a canonical event queue ordered by the stable key
 *    (time, priority, seq): earlier simulated time first, then lower
 *    priority number, then schedule order. Two kernels fed the same
 *    event graph dispatch in the same order on any machine;
 *  - single-threaded dispatch: run() executes every handler on its
 *    caller's thread, one at a time; the kernel starts no threads;
 *  - first-class hooks for the rest of the stack: retired kernels
 *    charge their KernelStats into the "des ..." runtime counters for
 *    the ASCEND_SIM_STATS report, and clients mark *quiescent points*
 *    — boundaries where no event is mid-dispatch and client state is
 *    declared consistent — at which registered hooks (e.g.
 *    resilience::checkpoint saves) run.
 *
 * Determinism contract: the kernel never reads the wall clock, thread
 * identity, or allocation addresses. Given the same initial events
 * and handlers performing the same arithmetic, the dispatch sequence
 * and the simulated clock are byte-identical at any ASCEND_THREADS.
 *
 * Time model: `now()` is a double in the client's sim-time unit
 * (seconds for the fluid/cluster domains). Time advances two ways:
 * dispatching an event scheduled in the future, and an in-handler
 * advanceTo() — fluid clients (chip_sim) re-solve rates at times they
 * compute mid-handler rather than pre-schedule. The clock is
 * monotonic: dispatching an event whose key time is in the past of an
 * advanced clock runs it at the current time (the "no rewind" rule —
 * what makes lazily-applied fault batches deterministic).
 *
 * Misuse is structured: re-entrant run(), scheduling into the past,
 * or a non-monotonic advanceTo() throw ascend::Error{KernelMisuse};
 * exceeding the event guard throws ascend::Error{GuardExceeded}.
 * run() on an empty queue is a clean no-op.
 */

#ifndef ASCEND_DES_KERNEL_HH
#define ASCEND_DES_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ascend {
namespace des {

/** Counters one kernel accumulates over its lifetime. */
struct KernelStats
{
    std::uint64_t eventsScheduled = 0;
    std::uint64_t eventsDispatched = 0;
    std::uint64_t quiescentPoints = 0; ///< quiescent markers dispatched
    std::uint64_t queueHighWater = 0;  ///< max pending events observed
};

/** Safety knobs of one kernel instance. */
struct KernelOptions
{
    /**
     * Dispatch-count bound: exceeding it throws ascend::Error with
     * code GuardExceeded (a guard against event-loop livelock;
     * 0 disables). Clients with their own progress-context guards
     * (chip_sim) keep those and leave this as a backstop.
     */
    std::uint64_t maxEvents = 0;
};

/**
 * One deterministic discrete-event kernel: an event queue, a
 * monotonic simulated clock, and quiescent hooks. Not thread-safe;
 * one kernel drives one simulation from one thread.
 */
class Kernel
{
  public:
    using Handler = std::function<void(Kernel &)>;

    explicit Kernel(const KernelOptions &options = {});
    ~Kernel(); ///< charges stats() into the "des ..." runtime counters

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** The simulated clock (client units; monotonic). */
    double now() const { return now_; }

    /**
     * Advance the clock from inside a handler (fluid clients compute
     * event times mid-handler). @p time must be >= now() and finite.
     */
    void advanceTo(double time);

    /**
     * Enqueue @p fn to run at @p time (>= now(), finite) with
     * tie-break @p priority (lower dispatches first; equal keys
     * dispatch in schedule order). @p name must be a static string
     * (it labels traces and errors). Safe from inside handlers.
     * @return the event's seq number (the final ordering-key field).
     */
    std::uint64_t schedule(double time, std::int32_t priority,
                           const char *name, Handler fn);

    /**
     * Register a quiescent hook. Hooks run — in registration order —
     * each time a quiescent marker scheduled with
     * scheduleQuiescent() is dispatched: no client event is
     * mid-dispatch, so client state is checkpoint-consistent. Hooks
     * may advance the clock and schedule events.
     */
    void onQuiescent(Handler hook);

    /** Enqueue a quiescent marker at (@p time, @p priority). */
    std::uint64_t scheduleQuiescent(double time,
                                    std::int32_t priority = 0);

    /**
     * Dispatch events in (time, priority, seq) order until the queue
     * drains or stop() is called. Empty queue: clean no-op.
     * Re-entrant calls throw KernelMisuse. A handler exception
     * propagates unchanged: the throwing event is consumed, later
     * events stay pending, stopped() stays false, and the next run()
     * resumes the drain.
     */
    void run();

    /** Stop after the current handler returns; pending events stay. */
    void stop() { stopped_ = true; }

    /** True once stop() was called in the current/last run(). */
    bool stopped() const { return stopped_; }

    /** Pending (not yet dispatched) events. */
    std::size_t pending() const { return queue_.size(); }

    /**
     * Sim time of the earliest pending event (+inf when the queue is
     * empty). Clients composing several event sources on one kernel
     * (e.g. the serving fleet's arrivals, completions and fault polls)
     * use this to decide whether re-arming a tick would land before
     * already-scheduled work. Stop/resume composition works the same
     * way: after stop() the queue is preserved, a second client may
     * register events and quiescent hooks, and the next run() resumes
     * in canonical (time, priority, seq) order across both clients.
     */
    double nextEventTime() const;

    const KernelStats &stats() const { return stats_; }

  private:
    struct Event
    {
        double time = 0;
        std::int32_t priority = 0;
        std::uint64_t seq = 0;
        const char *name = nullptr;
        Handler fn; ///< empty = quiescent marker
    };

    /** Min-heap "greater" on the canonical (time, priority, seq) key. */
    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    std::uint64_t push(double time, std::int32_t priority,
                       const char *name, Handler fn);

    KernelOptions options_;
    std::vector<Event> queue_; ///< std::*_heap under EventAfter
    std::vector<Handler> quiescentHooks_;
    KernelStats stats_;
    double now_ = 0;
    std::uint64_t nextSeq_ = 0;
    bool running_ = false;
    bool stopped_ = false;
};

} // namespace des
} // namespace ascend

#endif // ASCEND_DES_KERNEL_HH
