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
 * The engine is one loop over training steps. Each step's instant
 * runs in a fixed order: the cadenced checkpoint, the node failures
 * due by now (one at a time), the ECC rollbacks due by now (one at a
 * time), then the step itself.
 *
 * Checkpoints are resilience::RunJournal files (format ASCCKPT v2)
 * taken only at the head of an instant, before any of its faults or
 * its step has run: the engine is a pure function of its state, so a run killed at any
 * instant and re-invoked with the same arguments resumes from the
 * last on-disk checkpoint and finishes with a byte-identical report
 * (bench_chaos SIGKILLs a child to enforce exactly this).
 *
 * Determinism contract:
 *  - pure serial arithmetic over the schedule: byte-identical at any
 *    ASCEND_THREADS / chip-sim grain;
 *  - on an empty FaultSchedule with default ElasticOptions the result
 *    equals the cluster::collective closed forms bit-for-bit (every
 *    elastic adjustment is guarded so the fault-free path performs
 *    the identical float operations as stepSeconds);
 *  - recovery phases emit obs tracer spans (Cluster domain, track 2)
 *    and every ElasticCounters field is charged into the runtime
 *    counter "elastic <key>" for the ASCEND_SIM_STATS report.
 */

#ifndef ASCEND_CLUSTER_ELASTIC_RUN_HH
#define ASCEND_CLUSTER_ELASTIC_RUN_HH

#include <cstdint>
#include <string>

#include "cluster/fault_collective.hh"
#include "resilience/run_journal.hh"

namespace ascend {
namespace cluster {

/**
 * Knobs of the elastic engine. The resilience::RunControl fields
 * (checkpoint directory, halt hook, event callback) are excluded from
 * runFingerprint().
 */
struct ElasticOptions : resilience::RunControl
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
};

/** ElasticOptions' fields, RunControl's excluded; runElastic checks. */
template <typename F, RecordOf<ElasticOptions>... O>
void
forEachField(F &&f, O &...o)
{
    f("spare_nodes", o.spareNodes...);
    f("state_bytes", o.stateBytes...);
    f(nonNegative("failover_restart_sec"), o.failoverRestartSec...);
    f(nonNegative("reshard_restart_sec"), o.reshardRestartSec...);
    f("speculation", o.speculation...);
    f("checkpoint", o.checkpoint...);
    f("checkpoint_every_steps", o.checkpointEverySteps...);
}

/** Resilience counters an elastic run accumulates. */
struct ElasticCounters
{
    std::uint64_t failovers = 0;      ///< spare-node replacements
    std::uint64_t shrinks = 0;        ///< elastic world reductions
    std::uint64_t rollbacks = 0;      ///< checkpoint restores
    std::uint64_t replayedSteps = 0;  ///< steps lost and re-run
    std::uint64_t speculations = 0;   ///< straggler speculative wins
    std::uint64_t retries = 0;        ///< link-level retry attempts
    std::uint64_t degradedSteps = 0;  ///< steps at reduced bandwidth
    std::uint64_t sparesUsed = 0;     ///< warm spares consumed
    std::uint64_t spareExhausted = 0; ///< failures with an empty pool
    std::uint64_t checkpointsSaved = 0;

    bool operator==(const ElasticCounters &) const = default;
};

/** ElasticCounters' fields, in checkpoint order (common/field.hh). */
template <typename F, RecordOf<ElasticCounters>... C>
void
forEachField(F &&f, C &...c)
{
    f("failovers", c.failovers...);
    f("shrinks", c.shrinks...);
    f("rollbacks", c.rollbacks...);
    f("replayed_steps", c.replayedSteps...);
    f("speculations", c.speculations...);
    f("retries", c.retries...);
    f("degraded_steps", c.degradedSteps...);
    f("spares_used", c.sparesUsed...);
    f("spare_exhausted", c.spareExhausted...);
    f("checkpoints_saved", c.checkpointsSaved...);
}

/** Outcome of an elastic run. */
struct ElasticRunResult
{
    double seconds = 0;     ///< wall time (time-to-failure if !completed)
    unsigned stepsDone = 0; ///< committed steps (replays re-commit)
    bool completed = true;  ///< false when the world died / FailStop
    bool halted = false;    ///< true only via haltAfterEvents
    unsigned finalNodes = 0;
    unsigned finalChips = 0;
    ElasticCounters counters;

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
 * output. Checkpoints carry it, and a checkpoint written under any
 * other identity is refused (the run cold-starts).
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
 * stepSecondsWithFaults. Throws ascend::Error(ConfigValidation) when
 * @p chips is 0 or @p job, @p retry or @p options has a field outside
 * its domain.
 */
ElasticRunResult runElastic(const TrainingJob &job,
                            const ClusterConfig &cluster, unsigned chips,
                            unsigned num_steps,
                            const resilience::FaultSchedule &faults,
                            const resilience::RetryPolicy &retry,
                            resilience::DegradedMode mode,
                            const ElasticOptions &options = {});

} // namespace cluster
} // namespace ascend

#endif // ASCEND_CLUSTER_ELASTIC_RUN_HH
