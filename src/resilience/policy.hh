/**
 * @file
 * Recovery-policy models: what the stack *does* when a scheduled
 * fault strikes.
 *
 * Three mechanisms cover the production playbook:
 *  - RetryPolicy: bounded retries with exponential backoff and a
 *    per-attempt timeout, applied to collective steps whose link is
 *    down (cluster/fault_collective);
 *  - CheckpointPolicy: periodic checkpoint cost plus expected rework
 *    on an uncorrectable error (half an interval is lost on average,
 *    then a restart);
 *  - DegradedMode: when retries are exhausted, either continue at
 *    reduced bandwidth (graceful degradation) or fail-stop and report
 *    the time-to-failure.
 *
 * Everything here is closed-form arithmetic on doubles: deterministic,
 * thread-count independent, and exactly zero-cost when no fault fires.
 */

#ifndef ASCEND_RESILIENCE_POLICY_HH
#define ASCEND_RESILIENCE_POLICY_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ascend {
namespace resilience {

/** What to do once retries are exhausted. */
enum class DegradedMode {
    ContinueDegraded, ///< keep going at `degradedBandwidthFactor`
    FailStop,         ///< abort the run; report time-to-failure
};

const char *toString(DegradedMode mode);

/** Bounded retry with exponential backoff. */
struct RetryPolicy
{
    unsigned maxRetries = 3;
    double timeoutSec = 1e-3;       ///< time burned per failed attempt
    double backoffBaseSec = 1e-4;   ///< sleep after the first failure
    double backoffMultiplier = 2.0; ///< growth per further failure
    double backoffCapSec = 1e-1;    ///< backoff saturation
    /** Bandwidth multiplier once ContinueDegraded kicks in. */
    double degradedBandwidthFactor = 0.25;
    /**
     * Deadline budget: retry number n is permitted only while the
     * cumulative retry delay through n (every failed attempt's
     * timeout plus its backoff sleep) stays within this budget.
     * The serving layer sets it to the request's QoS deadline so a
     * request never burns retries it cannot possibly spend and still
     * answer in time. 0 disables the budget (maxRetries alone rules).
     */
    double giveUpAfterSeconds = 0;

    /**
     * Seeded backoff jitter, off by default. When > 0, retry number n
     * of request key k sleeps retryDelaySeconds * (1 - f * u) where
     * u in [0, 1) is a deterministic hash of (jitterSeed, k, n) and f
     * is this fraction clamped to [0, 1]. A correlated fault drops
     * many requests at one instant; identical backoff re-offers them
     * in one synchronized wave — the seed of a retry storm. Jitter
     * de-synchronizes the wave while only ever *shrinking* a sleep,
     * so every closed form above (retryCumulativeSeconds as an upper
     * bound, retryPermitted, retriesWithinBudget) still holds.
     */
    double jitterFraction = 0;
    std::uint64_t jitterSeed = 0x5eed;
};

/**
 * RetryPolicy's fields (common/field.hh), checked by runFleet and
 * runElastic; the fields that are clamped where used have no domain.
 */
template <typename F, RecordOf<RetryPolicy>... P>
void
forEachField(F &&f, P &...p)
{
    f("max_retries", p.maxRetries...);
    f(nonNegative("timeout_sec"), p.timeoutSec...);
    f(nonNegative("backoff_base_sec"), p.backoffBaseSec...);
    f("backoff_multiplier", p.backoffMultiplier...);
    f(nonNegative("backoff_cap_sec"), p.backoffCapSec...);
    f("degraded_bandwidth_factor", p.degradedBandwidthFactor...);
    f(nonNegative("give_up_after_seconds"), p.giveUpAfterSeconds...);
    f("jitter_fraction", p.jitterFraction...);
    f("jitter_seed", p.jitterSeed...);
}

/**
 * Deterministic jitter unit u in [0, 1) for (policy.jitterSeed,
 * @p key, @p attempt). Pure arithmetic (FNV-1a bits into a mantissa);
 * byte-stable across platforms and call order.
 */
double retryJitterUnit(const RetryPolicy &policy, std::uint64_t key,
                       unsigned attempt);

/**
 * retryDelaySeconds scaled by the jitter of (@p key, @p attempt).
 * Bit-identical to retryDelaySeconds when jitterFraction is 0.
 */
double retryDelaySecondsJittered(const RetryPolicy &policy,
                                 unsigned attempt, std::uint64_t key);

/** Backoff sleep before retry number @p attempt (0-based). */
double retryDelaySeconds(const RetryPolicy &policy, unsigned attempt);

/**
 * Cumulative delay of the first @p attempts failed tries: each one
 * costs timeoutSec plus its backoff sleep. Closed-form over the
 * geometric prefix and the cap-saturated tail, so huge attempt counts
 * cost O(saturation point), never O(attempts).
 */
double retryCumulativeSeconds(const RetryPolicy &policy,
                              unsigned attempts);

/**
 * May retry number @p attempt (0-based) be launched after @p attempt
 * failures? False once attempt >= maxRetries, and — when
 * giveUpAfterSeconds is set — once the cumulative delay through this
 * retry would exceed the budget.
 */
bool retryPermitted(const RetryPolicy &policy, unsigned attempt);

/**
 * Retries the policy can actually launch: the largest n <= maxRetries
 * with retryCumulativeSeconds(n) within the deadline budget.
 */
unsigned retriesWithinBudget(const RetryPolicy &policy);

/** Checkpoint/restart cost model for uncorrectable errors. */
struct CheckpointPolicy
{
    bool enabled = false;
    double intervalSec = 60.0; ///< checkpoint cadence
    double saveSec = 2.0;      ///< cost of writing one checkpoint
    double restartSec = 10.0;  ///< reload + re-setup after a loss
};

/**
 * CheckpointPolicy's fields (common/field.hh), checked by
 * timeWithCheckpointRestart and runElastic.
 */
template <typename F, RecordOf<CheckpointPolicy>... P>
void
forEachField(F &&f, P &...p)
{
    f("enabled", p.enabled...);
    f(positive("interval_sec"), p.intervalSec...);
    f(nonNegative("save_sec"), p.saveSec...);
    f(nonNegative("restart_sec"), p.restartSec...);
}

/**
 * Expected wall time to finish @p work_sec of compute when
 * uncorrectable errors strike at @p events_per_sec and @p policy
 * governs recovery. With checkpointing disabled, any error loses all
 * progress so far (modeled as restarting half the work on average);
 * enabled, each error loses restartSec plus half an interval, and
 * every interval pays saveSec. Exactly @p work_sec when the error
 * rate is zero and checkpointing is disabled. Throws
 * ascend::Error(ConfigValidation) on a negative input or a @p policy
 * field outside its domain.
 */
double timeWithCheckpointRestart(double work_sec, double events_per_sec,
                                 const CheckpointPolicy &policy);

/**
 * Per-session degraded-mode knobs threaded through runtime::SimSession.
 * Fingerprinted into every cache key, so faulty runs and fault-free
 * runs can never serve each other's memoized results.
 */
struct ResilienceOptions
{
    bool enabled = false;
    /** Seed for fault schedules derived on behalf of this session. */
    std::uint64_t faultSeed = 0;
    /**
     * Straggler derate applied to simulated layer latencies (wall
     * clock stretches by this factor; >= 1). 1.0 is a no-op and
     * reproduces the fault-free result bit-for-bit.
     */
    double stragglerSlowdown = 1.0;
    /**
     * Free-form scenario tag (e.g. an elastic-run fingerprint).
     * Mixed verbatim into cache keys so sessions simulating different
     * elastic/chaos configurations never alias each other.
     */
    std::string scenario;

    static constexpr const char *keyTag = "res:"; ///< key prefix
};

/** ResilienceOptions' fields, in SimCache-key order (common/field.hh). */
template <typename F, RecordOf<ResilienceOptions>... O>
void
forEachField(F &&f, O &...o)
{
    f("enabled", o.enabled...);
    f("fault_seed", o.faultSeed...);
    f("straggler_slowdown", o.stragglerSlowdown...);
    f("scenario", o.scenario...);
}

} // namespace resilience
} // namespace ascend

#endif // ASCEND_RESILIENCE_POLICY_HH
