/**
 * @file
 * Fluid multi-core chip simulator.
 *
 * The TrainingSoc roofline assumes all cores run in lockstep; this
 * model relaxes that: each core executes its own task sequence
 * (compute seconds + off-core bytes per task), and the shared memory
 * system is a capacity that active tasks share max-min fairly. The
 * simulation advances event-by-event (piecewise-constant rates), so
 * stragglers, skewed partitions, and bandwidth contention between
 * unequal tasks are captured.
 *
 * Hot-path structure: each rate re-solve is one iteration of a loop
 * that runs while work remains. One loop serves the fault-free and
 * the degraded model, traced or not. Active cores (alive, holding a
 * task) whose fluid state — remaining compute, remaining bytes,
 * straggler factor, repair deadline — is bit-identical form a
 * *cohort*, and the exact reduce (memory-active count, minimum
 * remaining compute and bytes, next repair wake-up) and the fluid
 * advance run once per cohort. The shared byte total, the one
 * non-exact sum, must add per core in core-index order; it folds a
 * per-core mark byte array a 64-bit word at a time, adding each run
 * of equal per-core drains in one exact step, so an instant costs
 * O(cohorts + cores / 8 + changed cores) rather than O(active
 * cores). Completed cores then reload in index order. Cores re-group
 * when they take a new state (task load, orphan pickup, transient
 * restart). On the fault-free runs of the chip-fanout perf workload
 * about 53 cohorts stand for some 1,700 active cores per instant.
 * Fault strikes and idle survivors live in min-heaps, so a fault plan
 * adds no per-event walk over all cores. The loop is serial — the
 * work of one event is far less than a thread-pool fan-out costs —
 * so results are byte-identical at any ASCEND_THREADS.
 *
 * Used to study block-level parallel execution (Section 5.2) on the
 * 910: how uneven layer splits and memory interference stretch the
 * lockstep estimate.
 */

#ifndef ASCEND_SOC_CHIP_SIM_HH
#define ASCEND_SOC_CHIP_SIM_HH

#include <vector>

#include "common/types.hh"
#include "model/network.hh"
#include "resilience/fault_schedule.hh"

namespace ascend {
namespace runtime {
class SimSession;
} // namespace runtime

namespace soc {

/** One unit of core work. */
struct CoreTask
{
    double computeSeconds = 0; ///< pure compute time (no contention)
    Bytes memBytes = 0;        ///< off-core traffic it must move
};

/** Result of a fluid simulation. */
struct ChipSimResult
{
    double makespan = 0;
    std::vector<double> coreFinish; ///< per-core completion time
    double avgMemUtilization = 0;   ///< shared-capacity usage over time

    /// @{ Degraded-mode accounting (zero on the fault-free path).
    unsigned coreFailures = 0;      ///< transient + permanent strikes
    unsigned reDispatchedTasks = 0; ///< tasks moved off dead cores
    /** False when every core died with work still queued. */
    bool completed = true;
    /// @}
};

/** Safety knobs of the fluid event loop. */
struct ChipSimOptions
{
    /**
     * Event-count bound: exceeding it raises ascend::Error with code
     * GuardExceeded and progress context (a guard against numerical
     * livelock; genuine workloads complete in O(total tasks) events).
     */
    int guardLimit = 4 * 1000 * 1000;
};

/**
 * Simulate @p per_core task queues over a shared memory system of
 * @p mem_bytes_per_sec. Within one task, compute and its memory
 * traffic overlap (double buffering): the task finishes when both
 * its compute time has elapsed and its bytes have drained at the
 * granted rate.
 */
ChipSimResult runChipSim(const std::vector<std::vector<CoreTask>> &per_core,
                         double mem_bytes_per_sec,
                         const ChipSimOptions &options = {});

/**
 * Degraded-mode variant: same fluid model plus a per-core fault plan.
 *  - Stragglers execute compute slower by their plan factor (memory
 *    draining still shares the fluid capacity fairly).
 *  - A transient failure pauses the core for the event's repair
 *    window and restarts its in-flight task from scratch.
 *  - A permanent failure kills the core; its in-flight task and its
 *    remaining queue are re-dispatched to surviving cores in
 *    deterministic order (lowest-index idle core first).
 * Both overloads run the same event loop; the fault-free one is this
 * overload with an empty plan.
 */
ChipSimResult runChipSim(const std::vector<std::vector<CoreTask>> &per_core,
                         double mem_bytes_per_sec,
                         const resilience::ChipFaultPlan &plan,
                         const ChipSimOptions &options = {});

/**
 * Per-core fluid task queue for one instance of @p net on @p session's
 * core: one task per layer, pure compute seconds at the core clock
 * plus the layer's external-bus traffic. The building block the SoC
 * fluid APIs and the block-parallel bench share.
 */
std::vector<CoreTask> coreTasks(const runtime::SimSession &session,
                                const model::Network &net);

} // namespace soc
} // namespace ascend

#endif // ASCEND_SOC_CHIP_SIM_HH
