/**
 * @file
 * Event-driven elastic cluster training runs.
 *
 * The fault-aware paths in fault_collective.hh charge closed-form
 * penalties but the run never changes shape: a dead server stays in
 * the allreduce ring forever and an uncorrectable error costs an
 * expected-value half-interval. At the paper's 2048-NPU scale the
 * production stack *reacts* instead, and this engine models those
 * reactions as an event-driven state machine over the same seeded
 * resilience::FaultSchedule:
 *
 *  - permanent node failure -> warm-spare failover (state transfer
 *    over the fat-tree plus a restart) while the pool lasts, then
 *    elastic world-shrink: the dead server leaves the ring, the
 *    data-parallel plan re-shards deterministically over the
 *    survivors (per-chip compute scales by initial/current chips) and
 *    the allreduce schedule is re-derived for the smaller world;
 *  - uncorrectable ECC -> rollback to the last checkpoint and replay
 *    of the *actual* lost steps (with checkpointing disabled the run
 *    replays from step zero);
 *  - stragglers -> bounded speculation: the slow node's step is
 *    speculatively re-dispatched at RetryPolicy cost and the step
 *    takes the cheaper of the two outcomes.
 *
 * The engine runs on the des::Kernel: every training step is a short
 * chain of kernel events (checkpoint quiescent marker, node-failure
 * poll, ECC rollback poll, the step itself) tie-broken by priority
 * at the same sim time, so recovery ordering is the kernel's
 * canonical dispatch order rather than ad-hoc loop structure.
 *
 * Checkpoints are real resilience::CheckpointStore artifacts taken
 * only at kernel quiescent points (no handler mid-flight): the
 * engine is a pure function of the RunCheckpoint state, so a run
 * killed at any instant and re-invoked with the same arguments
 * resumes from the last on-disk checkpoint and finishes with a
 * byte-identical report (bench_chaos SIGKILLs a child to enforce
 * exactly this).
 *
 * Determinism contract:
 *  - pure serial arithmetic over the schedule: byte-identical at any
 *    ASCEND_THREADS / chip-sim grain;
 *  - on an empty FaultSchedule with default ElasticOptions the result
 *    equals the cluster::collective closed forms bit-for-bit (every
 *    elastic adjustment is guarded so the fault-free path performs
 *    the identical float operations as stepSeconds);
 *  - recovery phases emit obs tracer spans (Cluster domain, track 2)
 *    and the per-run counters are charged into the "elastic ..."
 *    runtime counters for the ASCEND_SIM_STATS report.
 */

#ifndef ASCEND_CLUSTER_ELASTIC_RUN_HH
#define ASCEND_CLUSTER_ELASTIC_RUN_HH

#include <functional>
#include <string>

#include "cluster/fault_collective.hh"
#include "resilience/checkpoint.hh"

namespace ascend {
namespace cluster {

/** Knobs of the elastic engine. */
struct ElasticOptions
{
    /** Warm spare servers available for failover. */
    unsigned spareNodes = 0;

    /**
     * Model + optimizer state shipped to a spare on failover and
     * re-sharded across survivors on shrink.
     */
    Bytes stateBytes = 0;

    /** Fixed re-setup time after a failover state transfer. */
    double failoverRestartSec = 5.0;

    /** Fixed re-setup time after an elastic re-shard. */
    double reshardRestartSec = 10.0;

    /** Speculatively re-dispatch straggler steps (RetryPolicy cost). */
    bool speculation = true;

    /**
     * Checkpoint cadence/cost. enabled=false still runs elastically
     * but every rollback replays from step zero.
     */
    resilience::CheckpointPolicy checkpoint;

    /** Also checkpoint every N committed steps (0 = sim-time only). */
    unsigned checkpointEverySteps = 0;

    /**
     * Directory for crash-consistent on-disk checkpoints; empty keeps
     * checkpoints logical only (rollback targets, no files). When
     * set, a valid checkpoint left by a killed run with the same
     * fingerprint is resumed automatically, and a completed run
     * removes its file. Excluded from fingerprint().
     */
    std::string checkpointDir;

    /**
     * Test/chaos hook: stop (like a crash, checkpoint left on disk,
     * nothing charged) after this many recovery events. 0 = never.
     * Excluded from fingerprint().
     */
    unsigned haltAfterEvents = 0;

    /**
     * Called with each event-log line as it is appended (bench_chaos
     * uses this to flush kill-point markers). Excluded from
     * fingerprint().
     */
    std::function<void(const std::string &line)> onEvent;
};

/**
 * Exact fingerprint of the option fields that influence simulated
 * results (checkpointDir / haltAfterEvents / onEvent excluded). Mix
 * into runtime::ResilienceOptions::scenario so sessions simulating
 * different elastic configurations never alias in the SimCache.
 */
std::string fingerprint(const ElasticOptions &options);

/** Outcome of an elastic run. */
struct ElasticRunResult
{
    double seconds = 0;     ///< wall time (time-to-failure if !completed)
    unsigned stepsDone = 0; ///< committed steps (replays re-commit)
    bool completed = true;  ///< false when the world died / FailStop
    bool halted = false;    ///< true only via haltAfterEvents
    unsigned finalNodes = 0;
    unsigned finalChips = 0;
    unsigned retries = 0;       ///< link-level retries (all steps)
    unsigned degradedSteps = 0; ///< steps at reduced bandwidth
    resilience::ElasticCounters counters;

    /** One line per recovery event, deterministic. */
    std::string eventLog;

    /**
     * Deterministic multi-line report (summary + counters + event
     * log). The byte-diff unit of the kill/resume contract.
     */
    std::string report() const;
};

/**
 * Identity fingerprint of a run: all inputs that influence its
 * output. Checkpoints carry it, and load() refuses a file written
 * under any other identity.
 */
std::string runFingerprint(const TrainingJob &job,
                           const ClusterConfig &cluster, unsigned chips,
                           unsigned num_steps,
                           const resilience::FaultSchedule &faults,
                           const resilience::RetryPolicy &retry,
                           resilience::DegradedMode mode,
                           const ElasticOptions &options);

/**
 * Run @p num_steps synchronous-SGD steps over @p chips chips
 * (ceil(chips/server.chips) nodes) reacting to @p faults as described
 * above. Node-scope events use FaultSpec::cores as *server* ids;
 * link events hit fat-tree uplinks exactly as in
 * stepSecondsWithFaults.
 */
ElasticRunResult runElastic(const TrainingJob &job,
                            const ClusterConfig &cluster, unsigned chips,
                            unsigned num_steps,
                            const resilience::FaultSchedule &faults,
                            const resilience::RetryPolicy &retry,
                            resilience::DegradedMode mode,
                            const ElasticOptions &options = {});

/**
 * Chip-driven variant: the per-chip step time is simulated by the
 * fluid chip model (soc::chipStepSeconds) under @p chip_plan instead
 * of supplied, then the run proceeds elastically. A chip plan that
 * kills every core fail-stops at step 0 like
 * trainingRunWithChipFaults.
 */
ElasticRunResult runElasticWithChipSim(
    const TrainingJob &job, const ClusterConfig &cluster, unsigned chips,
    unsigned num_steps,
    const std::vector<std::vector<soc::CoreTask>> &per_core,
    double mem_bytes_per_sec, const resilience::ChipFaultPlan &chip_plan,
    const resilience::FaultSchedule &faults,
    const resilience::RetryPolicy &retry, resilience::DegradedMode mode,
    const ElasticOptions &options = {});

} // namespace cluster
} // namespace ascend

#endif // ASCEND_CLUSTER_ELASTIC_RUN_HH
