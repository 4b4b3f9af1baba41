/**
 * @file
 * The overload-tolerant fleet serving simulator.
 *
 * The paper's cluster story ends at training; its serving story
 * (Section 2's "ubiquitous" deployment) is a fleet of inference
 * replicas answering an open-loop request stream under SLOs. This
 * engine models that fleet at the same fidelity the elastic trainer
 * models a training run, with robustness as the first-class subject:
 *
 *  - admission control + deadline-aware shedding: under overload a
 *    governed fleet drops the requests it cannot answer in time and
 *    keeps goodput near saturation with bounded p99; an ungoverned
 *    one queues without limit and every latency percentile diverges
 *    (the shed/no-shed sweep bench_serving emits);
 *  - per-request timeout/retry with capped exponential backoff
 *    (resilience::RetryPolicy, giveUpAfterSeconds wired to the
 *    request's QoS deadline) plus hedged duplicates against
 *    straggling replicas — first completion wins;
 *  - replica failure and warm-spare failover driven by a seeded
 *    resilience::FaultSchedule; in-flight requests of a dead replica
 *    re-enter the queue deterministically;
 *  - a queue-depth autoscaler that spins up cold replicas with a
 *    spin-up latency.
 *
 * Engine shape (same discipline as cluster/elastic_run): the engine
 * is a pure function of (immutable inputs, ServingState), driven by
 * one loop over decision instants. Each instant runs, in order, the
 * cadenced on-disk checkpoint, the faults due by then (ONE at a
 * time), then the step: completions, admitted arrivals, hedge checks,
 * autoscale, dispatch; the loop then moves to the next decision
 * instant. Checkpoints are resilience::RunJournal files (format
 * ASCBLOB v2) taken only at the head of an instant, so a SIGKILL at
 * any instant resumes into a byte-identical report — the property
 * bench_serving --chaos enforces with real kills.
 *
 * Determinism contract: serial double arithmetic over the sorted
 * arrival and fault lists; no wall clock, thread identity, or
 * container-order iteration. Byte-identical at any ASCEND_THREADS.
 */

#ifndef ASCEND_SERVING_FLEET_HH
#define ASCEND_SERVING_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/fault_schedule.hh"
#include "resilience/policy.hh"
#include "resilience/run_journal.hh"
#include "serving/latency_model.hh"
#include "serving/workload.hh"

namespace ascend {
namespace serving {

/** Front-door overload governance. */
struct AdmissionPolicy
{
    /**
     * Master switch for *all* shedding: admission control and the
     * expired-at-dispatch drop. Off = the ungoverned baseline — every
     * request queues and eventually runs, however late.
     */
    bool enabled = true;

    /** Queue slots; arrivals beyond this shed outright (0 = none). */
    std::size_t queueCapacity = 0;

    /**
     * Shed a sheddable arrival when its estimated completion
     * (queue-drain estimate plus a full-batch service time)
     * exceeds deadline * slackFactor.
     */
    double slackFactor = 1.0;
};

/** Straggler hedging: duplicate a slow dispatch, first answer wins. */
struct HedgePolicy
{
    bool enabled = false;

    /**
     * Hedge a dispatch still running this long after it started.
     * Duplicates of its unanswered requests re-enter the queue; the
     * losing copy's completion is discarded, never double-counted.
     */
    double afterSec = 0.05;
};

/** Queue-depth autoscaler with cold-start latency. */
struct AutoscalePolicy
{
    bool enabled = false;
    double checkIntervalSec = 0.05; ///< evaluation cadence
    std::size_t queueDepthPerReplica = 8; ///< scale-up threshold
    double spinUpSec = 0.2;  ///< cold replica readiness latency
    unsigned maxExtraReplicas = 0; ///< scale-out budget
};

/**
 * Per-replica health scoring with a circuit breaker. Every core
 * fault that hits a replica adds faultScore to its health score; a
 * completed batch multiplies the score by successDecay. When the
 * score crosses breakerThreshold the breaker opens: the dispatcher
 * skips the replica until cooloffSec has passed (the score is halved
 * at the trip, so the first post-cooloff dispatch is the half-open
 * probe — one more fault re-opens the breaker immediately). This
 * keeps a flapping or straggling replica from eating dispatches that
 * healthy peers would answer in time.
 */
struct HealthPolicy
{
    bool enabled = false;
    double faultScore = 1.0;      ///< score added per core fault
    double successDecay = 0.5;    ///< score multiplier per completion
    double breakerThreshold = 2.0;
    double cooloffSec = 0.05;     ///< open -> half-open window
};

/**
 * Brownout ladder: degrade quality instead of availability. Under
 * sustained overload (queue depth above enterQueueDepthPerReplica per
 * alive replica) the fleet switches every new dispatch to a cheaper
 * model variant (the brownout_model argument of runFleet) and rides
 * its higher capacity to drain the backlog; it exits once the depth
 * falls to exitQueueDepthPerReplica per replica and the ladder has
 * been held at least minResidencySec (hysteresis against flapping).
 * No-op unless both enabled and a brownout model are provided.
 */
struct BrownoutPolicy
{
    bool enabled = false;
    std::size_t enterQueueDepthPerReplica = 16;
    std::size_t exitQueueDepthPerReplica = 2;
    double minResidencySec = 0;
};

/**
 * Closed-loop clients: a shed request is not gone — its client
 * re-offers it after delaySec think time, up to maxReoffers times per
 * original request. Every re-offer counts as a fresh offered request
 * (conservation stays completed + shed == offered), carries a fresh
 * deadline from its re-offer instant, and — with
 * RetryPolicy::jitterFraction set — a de-synchronized delay. This is
 * the ingredient of metastable failure: after a mass-shedding fault
 * clears, the synchronized re-offer wave can keep the fleet saturated
 * indefinitely unless jitter/breakers/brownout break the loop.
 */
struct ReofferPolicy
{
    bool enabled = false;
    double delaySec = 0.01;   ///< client think time before re-offer
    unsigned maxReoffers = 2; ///< per original request
};

/**
 * Knobs of one fleet run. The resilience::RunControl fields
 * (checkpoint directory, halt hook, event callback) are excluded from
 * runFingerprint().
 */
struct FleetOptions : resilience::RunControl
{
    unsigned replicas = 4;    ///< initially-warm replicas
    unsigned warmSpares = 0;  ///< failover pool
    double failoverSec = 0.05; ///< spare activation latency

    AdmissionPolicy admission;
    HedgePolicy hedge;
    AutoscalePolicy autoscale;
    HealthPolicy health;
    BrownoutPolicy brownout;
    ReofferPolicy reoffer;

    /**
     * Retry discipline for requests lost to replica failure.
     * giveUpAfterSeconds is overridden per request with its tier
     * deadline (the serving wiring of the deadline budget).
     */
    resilience::RetryPolicy retry;

    /** On-disk checkpoint cadence in sim time (0 = every instant). */
    double checkpointIntervalSec = 0;
};

/**
 * FleetOptions' fields, its policies' included and RunControl's
 * excluded (common/field.hh), checked by runFleet. The hedge delay,
 * autoscale cadence and spin-up must be positive: at zero the next
 * decision instant would not advance the sim clock.
 */
template <typename F, RecordOf<FleetOptions>... O>
void
forEachField(F &&f, O &...o)
{
    f(positive("replicas"), o.replicas...);
    f("warm_spares", o.warmSpares...);
    f(nonNegative("failover_sec"), o.failoverSec...);
    f("admission_enabled", o.admission.enabled...);
    f("admission_queue_capacity", o.admission.queueCapacity...);
    f(nonNegative("admission_slack_factor"), o.admission.slackFactor...);
    f("hedge_enabled", o.hedge.enabled...);
    f(positive("hedge_after_sec"), o.hedge.afterSec...);
    f("autoscale_enabled", o.autoscale.enabled...);
    f(positive("autoscale_check_interval_sec"),
      o.autoscale.checkIntervalSec...);
    f("autoscale_queue_depth_per_replica",
      o.autoscale.queueDepthPerReplica...);
    f(positive("autoscale_spin_up_sec"), o.autoscale.spinUpSec...);
    f("autoscale_max_extra_replicas", o.autoscale.maxExtraReplicas...);
    f("health_enabled", o.health.enabled...);
    f(nonNegative("health_fault_score"), o.health.faultScore...);
    f(fraction("health_success_decay"), o.health.successDecay...);
    f(nonNegative("health_breaker_threshold"),
      o.health.breakerThreshold...);
    f(nonNegative("health_cooloff_sec"), o.health.cooloffSec...);
    f("brownout_enabled", o.brownout.enabled...);
    f("brownout_enter_queue_depth_per_replica",
      o.brownout.enterQueueDepthPerReplica...);
    f("brownout_exit_queue_depth_per_replica",
      o.brownout.exitQueueDepthPerReplica...);
    f(nonNegative("brownout_min_residency_sec"),
      o.brownout.minResidencySec...);
    f("reoffer_enabled", o.reoffer.enabled...);
    f(nonNegative("reoffer_delay_sec"), o.reoffer.delaySec...);
    f("reoffer_max_reoffers", o.reoffer.maxReoffers...);
    f("retry", o.retry...);
    f(nonNegative("checkpoint_interval_sec"),
      o.checkpointIntervalSec...);
}

/**
 * The counters a fleet run accumulates: checkpointed with the run's
 * state, reported in its FleetResult and charged into the runtime
 * counter "serving <key>" of each.
 */
struct FleetCounters
{
    std::uint64_t offered = 0;   ///< requests that arrived
    std::uint64_t admitted = 0;  ///< past admission control
    std::uint64_t shed = 0;      ///< admission + deadline drops
    std::uint64_t completed = 0; ///< answered (however late)
    std::uint64_t goodput = 0;   ///< answered within their deadline
    std::uint64_t retries = 0;   ///< failure re-dispatches
    std::uint64_t hedges = 0;    ///< hedge copies issued
    std::uint64_t replicaFailures = 0;
    std::uint64_t failovers = 0; ///< warm spares activated
    std::uint64_t autoscaleUps = 0;
    std::uint64_t checkpointsSaved = 0;
    std::uint64_t reoffered = 0;    ///< closed-loop re-offers queued
    std::uint64_t breakerTrips = 0; ///< circuit-breaker opens
    std::uint64_t brownoutEntries = 0;
    std::uint64_t brownoutCompleted = 0; ///< answered on the ladder
    std::uint64_t brownoutGoodput = 0;   ///< ...within their deadline
};

/** FleetCounters' fields, in checkpoint order (common/field.hh). */
template <typename F, RecordOf<FleetCounters>... C>
void
forEachField(F &&f, C &...c)
{
    f("offered", c.offered...);
    f("admitted", c.admitted...);
    f("shed", c.shed...);
    f("completed", c.completed...);
    f("goodput", c.goodput...);
    f("retries", c.retries...);
    f("hedges", c.hedges...);
    f("replica_failures", c.replicaFailures...);
    f("failovers", c.failovers...);
    f("autoscale_ups", c.autoscaleUps...);
    f("checkpoints_saved", c.checkpointsSaved...);
    f("reoffered", c.reoffered...);
    f("breaker_trips", c.breakerTrips...);
    f("brownout_entries", c.brownoutEntries...);
    f("brownout_completed", c.brownoutCompleted...);
    f("brownout_goodput", c.brownoutGoodput...);
}

/** Outcome of a fleet run: its counters plus times and latencies. */
struct FleetResult : FleetCounters
{
    double brownoutSec = 0; ///< sim time spent degraded

    bool halted = false;    ///< true only via haltAfterEvents
    double makespanSec = 0; ///< sim time when the fleet drained

    /** Arrival-to-answer latency of every completed request. */
    std::vector<double> latencies;

    /**
     * Absolute completion instant of every completed request, aligned
     * with latencies, plus its deadline-met flag — the raw material of
     * windowed recovery metrics (bench_serving's correlated sweep).
     */
    std::vector<double> completionsSec;
    std::vector<std::uint8_t> completedOnTime;

    /// @{ Percentiles over latencies (0 when nothing completed).
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
    /// @}

    /** One line per structural event, deterministic. */
    std::string eventLog;

    /**
     * Deterministic multi-line report (summary + counters + event
     * log). The byte-diff unit of the kill/resume contract.
     */
    std::string report() const;
};

/**
 * Identity fingerprint of a run: every input that influences its
 * output. Checkpoints carry it, and a checkpoint written under any
 * other identity is refused (the run cold-starts).
 */
std::string runFingerprint(const std::vector<Request> &arrivals,
                           const std::vector<QosTier> &tiers,
                           const BatchLatencyModel &model,
                           const resilience::FaultSchedule &faults,
                           const FleetOptions &options,
                           const BatchLatencyModel *brownout_model =
                               nullptr);

/**
 * Serve @p arrivals on a fleet of options.replicas replicas with
 * per-batch cost @p model, reacting to @p faults (CorePermanent =
 * replica death, CoreTransient = repairable outage, CoreStraggler =
 * slowdown window; link/ECC kinds are ignored — replicas are
 * stateless). Tier indices in @p arrivals must address @p tiers.
 * Correlated schedules (resilience::generateCorrelated) work
 * unchanged: a rack event is just several core faults at one instant.
 * @p brownout_model is the cheaper curve the brownout ladder switches
 * to; ignored unless options.brownout.enabled. Throws ascend::Error
 * (ConfigValidation) before it runs on an @p options field outside
 * its domain, an empty @p tiers or a request tier out of range.
 */
FleetResult runFleet(const std::vector<Request> &arrivals,
                     const std::vector<QosTier> &tiers,
                     const BatchLatencyModel &model,
                     const resilience::FaultSchedule &faults,
                     const FleetOptions &options = {},
                     const BatchLatencyModel *brownout_model = nullptr);

} // namespace serving
} // namespace ascend

#endif // ASCEND_SERVING_FLEET_HH
