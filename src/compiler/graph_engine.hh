/**
 * @file
 * Graph engine and multi-level scheduling hierarchy (Sections 5.1-5.2,
 * Figs. 16-17).
 *
 * The development stack lowers an application to Streams of in-order
 * Tasks; each Task splits into Blocks that can run on different cores
 * in parallel. This module provides:
 *
 *  - the graph compiler: Network -> Stream of Tasks (one task per
 *    fusion group, sized by the cycle-level core simulator), with a
 *    block count chosen from the task's parallelizable batch work;
 *  - the task scheduler: list-schedules the blocks of any number of
 *    concurrent apps onto a multi-core SoC, respecting in-stream
 *    ordering, and reports makespan and per-core utilization.
 */

#ifndef ASCEND_COMPILER_GRAPH_ENGINE_HH
#define ASCEND_COMPILER_GRAPH_ENGINE_HH

#include <string>
#include <vector>

#include "runtime/sim_session.hh"

namespace ascend {
namespace compiler {

/** A schedulable unit: one fusion group of one network. */
struct Task
{
    std::string name;
    Cycles cycles = 0;     ///< single-core duration of the whole task
    unsigned blocks = 1;   ///< parallelizable block count
    /// Cross-stream dependency: wait for this event id before
    /// starting (-1 = none). Events model the "Streams ... with
    /// several tasks" + synchronization of the Section 5.2 runtime.
    int waitsForEvent = -1;
    /// Event id signalled when this task completes (-1 = none).
    int signalsEvent = -1;
};

/** An in-order task sequence. */
struct Stream
{
    std::string name;
    std::vector<Task> tasks;
};

/** One application: a set of concurrent streams. */
struct App
{
    std::string name;
    std::vector<Stream> streams;
};

/** Scheduler outcome. */
struct ScheduleResult
{
    Cycles makespan = 0;
    double avgCoreUtilization = 0;
    std::vector<Cycles> appFinish; ///< completion time per app
};

/**
 * The graph compiler: turn a network into one stream of tasks.
 *
 * @param session Core-level simulation session providing task
 *        durations (memoized across streams sharing shapes).
 * @param net The network.
 * @param max_blocks Upper bound on per-task block splitting (the
 *        explicit block count a programmer would write).
 */
Stream compileToStream(const runtime::SimSession &session,
                       const model::Network &net,
                       unsigned max_blocks = 4);

/**
 * List-schedule @p apps on @p cores cores.
 *
 * Streams are independent queues; a task becomes ready when its
 * stream predecessor completes; its blocks (each cycles/blocks long)
 * are placed greedily on the earliest-available cores; the task
 * completes when its last block does.
 */
ScheduleResult schedule(const std::vector<App> &apps, unsigned cores);

} // namespace compiler
} // namespace ascend

#endif // ASCEND_COMPILER_GRAPH_ENGINE_HH
