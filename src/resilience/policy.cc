/**
 * @file
 * Recovery-policy math.
 */

#include "resilience/policy.hh"

#include <algorithm>
#include <cmath>

#include "common/codec.hh"
#include "common/logging.hh"

namespace ascend {
namespace resilience {

const char *
toString(DegradedMode mode)
{
    switch (mode) {
      case DegradedMode::ContinueDegraded: return "continue-degraded";
      case DegradedMode::FailStop:         return "fail-stop";
    }
    return "?";
}

double
retryDelaySeconds(const RetryPolicy &policy, unsigned attempt)
{
    double delay = policy.backoffBaseSec;
    // Backoff must shrink never: a multiplier below 1 would also make
    // the loop below run `attempt` times (up to 2^32) to no effect.
    const double mult = std::max(policy.backoffMultiplier, 1.0);
    if (mult == 1.0 || delay <= 0)
        return std::min(delay, policy.backoffCapSec);
    for (unsigned i = 0; i < attempt; ++i) {
        delay *= mult;
        // Saturate *exactly* at the cap the moment we cross it, so
        // huge attempt numbers can never overflow the double to inf.
        if (delay >= policy.backoffCapSec)
            return policy.backoffCapSec;
    }
    return std::min(delay, policy.backoffCapSec);
}

double
retryJitterUnit(const RetryPolicy &policy, std::uint64_t key,
                unsigned attempt)
{
    // FNV-1a over (jitterSeed, key, attempt), folded into the same
    // 53-bit mantissa mapping Rng::uniformReal uses.
    std::uint64_t h = kFnv1aBasis;
    for (const std::uint64_t v : {policy.jitterSeed, key,
                                  std::uint64_t(attempt)})
        h = fnv1aU64(h, v);
    return double(h >> 11) * 0x1.0p-53;
}

double
retryDelaySecondsJittered(const RetryPolicy &policy, unsigned attempt,
                          std::uint64_t key)
{
    const double nominal = retryDelaySeconds(policy, attempt);
    if (policy.jitterFraction <= 0)
        return nominal;
    const double f = std::min(policy.jitterFraction, 1.0);
    return nominal *
           (1.0 - f * retryJitterUnit(policy, key, attempt));
}

double
retryCumulativeSeconds(const RetryPolicy &policy, unsigned attempts)
{
    if (attempts == 0)
        return 0;
    const double mult = std::max(policy.backoffMultiplier, 1.0);
    double total = 0;
    double delay = policy.backoffBaseSec;
    unsigned i = 0;
    // Geometric prefix, term for term the values retryDelaySeconds
    // returns; stops at the exact saturation point so the tail below
    // is a closed form, never an O(attempts) spin.
    if (mult > 1.0 && delay > 0) {
        for (; i < attempts && delay < policy.backoffCapSec; ++i) {
            total += policy.timeoutSec +
                     std::min(delay, policy.backoffCapSec);
            delay *= mult;
        }
    }
    if (i < attempts) {
        // Saturated (or constant-backoff) tail: every further retry
        // costs the same.
        const double per = policy.timeoutSec +
                           std::min(delay, policy.backoffCapSec);
        total += double(attempts - i) * per;
    }
    return total;
}

bool
retryPermitted(const RetryPolicy &policy, unsigned attempt)
{
    if (attempt >= policy.maxRetries)
        return false;
    if (policy.giveUpAfterSeconds <= 0)
        return true;
    return retryCumulativeSeconds(policy, attempt + 1) <=
           policy.giveUpAfterSeconds;
}

unsigned
retriesWithinBudget(const RetryPolicy &policy)
{
    if (policy.giveUpAfterSeconds <= 0)
        return policy.maxRetries;
    const double budget = policy.giveUpAfterSeconds;
    const double mult = std::max(policy.backoffMultiplier, 1.0);
    double total = 0;
    double delay = policy.backoffBaseSec;
    unsigned n = 0;
    if (mult > 1.0 && delay > 0) {
        while (n < policy.maxRetries && delay < policy.backoffCapSec) {
            const double cost = policy.timeoutSec +
                                std::min(delay, policy.backoffCapSec);
            if (total + cost > budget)
                return n;
            total += cost;
            ++n;
            delay *= mult;
        }
    }
    if (n >= policy.maxRetries)
        return n;
    const double per =
        policy.timeoutSec + std::min(delay, policy.backoffCapSec);
    if (per <= 0)
        return policy.maxRetries;
    const double room = double(policy.maxRetries - n);
    double more = std::min(std::floor((budget - total) / per), room);
    // The division can land one retry off the multiply form
    // retryCumulativeSeconds uses; nudge until the two agree exactly.
    while (more > 0 && total + more * per > budget)
        more -= 1;
    while (more < room && total + (more + 1) * per <= budget)
        more += 1;
    return n + unsigned(more);
}

double
timeWithCheckpointRestart(double work_sec, double events_per_sec,
                          const CheckpointPolicy &policy)
{
    simAssert(work_sec >= 0 && events_per_sec >= 0,
              "checkpoint model needs non-negative inputs");
    if (events_per_sec == 0 && !policy.enabled)
        return work_sec;
    double total = work_sec;
    double rework_per_event;
    if (policy.enabled) {
        simAssert(policy.intervalSec > 0,
                  "checkpoint interval must be positive");
        // Periodic save cost over the whole run...
        total += work_sec / policy.intervalSec * policy.saveSec;
        // ...and each error loses half an interval plus the restart.
        rework_per_event = policy.restartSec + 0.5 * policy.intervalSec;
    } else {
        // No checkpoints: an error loses everything accumulated so
        // far; on average half the run is repeated per event.
        rework_per_event = 0.5 * work_sec;
    }
    // First-order expected cost: events strike during the base work.
    total += events_per_sec * work_sec * rework_per_event;
    return total;
}

} // namespace resilience
} // namespace ascend
