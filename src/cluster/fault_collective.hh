/**
 * @file
 * Fault-aware collective communication (Section 4.2 at scale, when
 * links misbehave).
 *
 * Each allreduce algorithm executes as a sequence of steps; a
 * resilience::FaultSchedule supplies per-link state over time, and a
 * RetryPolicy + DegradedMode decide what a step does when its link is
 * down: retry with exponential backoff until the outage ends, give up
 * into reduced-bandwidth routing, or fail-stop and report the
 * time-to-failure.
 *
 * Determinism contract: results are computed as
 *   seconds = fault-free closed form + accumulated penalty,
 * where the penalty is exactly 0.0 for an empty schedule — so the
 * fault-aware functions reproduce collective.hh's fault-free results
 * bit-for-bit when nothing breaks (asserted in tests), and are pure
 * arithmetic (thread-count independent) otherwise.
 *
 * Link-index convention: for the flat allreduce variants, link i is
 * endpoint i's egress; a step is held up by the worst link active at
 * its start. For the hierarchical cluster variant, link i is server
 * i's fat-tree uplink (the intra-server HCCS/PCIe hops are two orders
 * of magnitude shorter-lived and are modeled fault-free).
 */

#ifndef ASCEND_CLUSTER_FAULT_COLLECTIVE_HH
#define ASCEND_CLUSTER_FAULT_COLLECTIVE_HH

#include "cluster/collective.hh"
#include "resilience/fault_schedule.hh"
#include "resilience/policy.hh"
#include "soc/chip_sim.hh"

namespace ascend {
namespace cluster {

/** Outcome of one fault-aware collective (or training run). */
struct FaultyCollectiveResult
{
    /** Wall time; on fail-stop, the time-to-failure instead. */
    double seconds = 0;
    /** Exact extra time over the fault-free closed form. */
    double penaltySeconds = 0;
    unsigned retries = 0;       ///< failed attempts that were retried
    unsigned degradedSteps = 0; ///< steps run at reduced bandwidth
    unsigned downSteps = 0;     ///< steps that hit a dead link
    bool completed = true;      ///< false only under FailStop
};

/**
 * Fault-aware allreduce over @p n endpoints. @p start_sec positions
 * the collective on the schedule's timeline (a step at local time t
 * sees the link state at start_sec + t).
 */
FaultyCollectiveResult
allreduceWithFaults(CollectiveAlgo algo, Bytes bytes, unsigned n,
                    double bw, double latency,
                    const resilience::FaultSchedule &faults,
                    const resilience::RetryPolicy &retry,
                    resilience::DegradedMode mode,
                    double start_sec = 0.0);

/**
 * Fault-aware hierarchical allreduce across the cluster: intra-server
 * phases at the fault-free closed form, the inter-server ring subject
 * to per-uplink faults.
 */
FaultyCollectiveResult
hierarchicalAllreduceWithFaults(const ClusterConfig &cluster, Bytes bytes,
                                const resilience::FaultSchedule &faults,
                                const resilience::RetryPolicy &retry,
                                resilience::DegradedMode mode,
                                double start_sec = 0.0);

/**
 * Fault-aware synchronous-SGD step time at @p chips chips (the
 * counterpart of stepSeconds): compute plus the exposed fraction of
 * the fault-aware allreduce. Throws ascend::Error(ConfigValidation)
 * when @p chips is 0.
 */
FaultyCollectiveResult
stepSecondsWithFaults(const TrainingJob &job, const ClusterConfig &cluster,
                      unsigned chips,
                      const resilience::FaultSchedule &faults,
                      const resilience::RetryPolicy &retry,
                      resilience::DegradedMode mode,
                      double start_sec = 0.0);

/** Samples/second under faults (0 when the run fail-stopped). */
double throughputSamplesPerSecWithFaults(
    const TrainingJob &job, const ClusterConfig &cluster, unsigned chips,
    const resilience::FaultSchedule &faults,
    const resilience::RetryPolicy &retry, resilience::DegradedMode mode);

/** Outcome of a multi-step training run under faults. */
struct TrainingRunResult
{
    double seconds = 0; ///< wall time incl. checkpoint/restart cost
    unsigned stepsDone = 0;
    unsigned retries = 0;
    unsigned degradedSteps = 0;
    bool completed = true;
};

/**
 * Run @p num_steps synchronous-SGD steps under the schedule; each
 * step sees the link state at its own start time. DRAM uncorrectable
 * errors at @p ecc_uncorrectable_per_sec are charged through the
 * checkpoint/restart model on the completed portion.
 */
TrainingRunResult
trainingRunWithFaults(const TrainingJob &job, const ClusterConfig &cluster,
                      unsigned chips, unsigned num_steps,
                      const resilience::FaultSchedule &faults,
                      const resilience::RetryPolicy &retry,
                      resilience::DegradedMode mode,
                      const resilience::CheckpointPolicy &checkpoint,
                      double ecc_uncorrectable_per_sec = 0.0);

/** Outcome of a training run whose step time came from the chip sim. */
struct ChipTrainingRunResult
{
    TrainingRunResult run;   ///< the cluster-level outcome
    soc::ChipSimResult chip; ///< the per-chip fluid simulation
    /** The chip-sim makespan that replaced job.stepSecondsPerChip. */
    double stepSecondsPerChip = 0;
};

/**
 * Cluster training run whose per-chip step time is *simulated* rather
 * than supplied: @p per_core is one chip's fluid task queues (every
 * chip runs the same data-parallel program), @p mem_bytes_per_sec its
 * shared-memory capacity, and @p chip_plan an intra-chip fault plan
 * (stragglers, core failures). The resulting makespan replaces
 * job.stepSecondsPerChip and the run then proceeds through
 * trainingRunWithFaults under the cluster-level schedule. A chip plan
 * that kills every core (chip.completed == false) fail-stops the run
 * at step 0. With an empty chip plan and an empty cluster schedule
 * the result equals the scalar path bit-for-bit.
 */
ChipTrainingRunResult trainingRunWithChipFaults(
    const TrainingJob &job, const ClusterConfig &cluster, unsigned chips,
    unsigned num_steps,
    const std::vector<std::vector<soc::CoreTask>> &per_core,
    double mem_bytes_per_sec,
    const resilience::ChipFaultPlan &chip_plan,
    const resilience::FaultSchedule &faults,
    const resilience::RetryPolicy &retry, resilience::DegradedMode mode,
    const resilience::CheckpointPolicy &checkpoint,
    double ecc_uncorrectable_per_sec = 0.0);

} // namespace cluster
} // namespace ascend

#endif // ASCEND_CLUSTER_FAULT_COLLECTIVE_HH
