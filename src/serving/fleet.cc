/**
 * @file
 * The fleet serving state machine — a des::Kernel client.
 *
 * Discipline mirrors cluster/elastic_run: the engine is a pure
 * function of (immutable inputs, ServingState); every mutation lives
 * in the ServingState, every cost is serial double arithmetic, and
 * nothing reads the wall clock or thread count — which is what makes
 * kill-and-resume byte-identical and lets bench_serving --chaos
 * enforce it with real SIGKILLs.
 *
 * Each decision instant t is a chain of kernel events tie-broken by
 * priority: quiescent marker (0) whose hook takes the cadenced
 * on-disk checkpoint, fault poll (1, ONE due fault per dispatch,
 * self-re-arming), then the step (2). The step processes — in a fixed
 * order — completions, replica spin-ups, due arrivals (admission
 * control), hedge checks, the autoscaler, and dispatch over idle
 * replicas in index order, then arms the next chain at the earliest
 * future decision instant. armStep() advances s.simTimeSec *before*
 * scheduling, so the state a quiescent save captures says "chain at t
 * not yet run": a resumed run re-enters at t and replays the fault
 * poll and step exactly as the uninterrupted run dispatched them.
 */

#include "serving/fleet.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "common/codec.hh"
#include "common/logging.hh"
#include "des/kernel.hh"
#include "obs/tracer.hh"
#include "resilience/checkpoint.hh"
#include "runtime/perf_stats.hh"

namespace ascend {
namespace serving {

using resilience::CheckpointStore;
using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultSchedule;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string
formatSeconds(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9e", v);
    return buf;
}

/** One queued (or in-flight) request instance. */
struct PendingRequest
{
    std::uint64_t id = 0;
    std::uint32_t tier = 0;
    double arrivalSec = 0;
    double deadlineSec = 0; ///< absolute SLO instant
    std::uint32_t attempt = 0; ///< failure re-dispatches so far
    double eligibleSec = 0; ///< earliest dispatch (retry backoff)
    std::uint8_t hedged = 0; ///< participates in first-wins dedup
    std::uint8_t copy = 0;   ///< 1 = hedge duplicate, not the original
    std::uint8_t reoffers = 0; ///< closed-loop re-offers so far
};

enum ReplicaStatus : std::uint32_t {
    kIdle = 0,
    kBusy = 1,
    kSpinningUp = 2,
    kDead = 3,
};

/** One replica slot (failover reuses the slot, autoscale appends). */
struct ReplicaState
{
    std::uint32_t status = kIdle;
    double readyAtSec = 0;    ///< SpinningUp only
    double busyUntilSec = 0;  ///< Busy only
    double dispatchedSec = 0; ///< Busy only
    double stragglerFactor = 1.0;
    double stragglerUntilSec = 0; ///< kInf = for the whole run
    std::uint8_t hedgeIssued = 0; ///< for the current dispatch
    std::uint8_t degraded = 0; ///< current dispatch rides the ladder
    double healthScore = 0;    ///< HealthPolicy fault accumulator
    double breakerUntilSec = 0; ///< breaker open until this instant
    std::vector<PendingRequest> batch; ///< in-flight requests
};

/** Complete engine state at one chain boundary. */
struct ServingState
{
    std::uint64_t sequence = 0; ///< checkpoint ordinal
    double simTimeSec = 0;      ///< chain instant (head not yet run)
    std::uint64_t arrivalCursor = 0;
    std::uint64_t faultCursor = 0;
    std::uint64_t sparesLeft = 0;
    std::uint64_t scaleUpsLeft = 0;
    double nextAutoscaleSec = 0;
    double lastCheckpointSec = -1;

    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t goodput = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::uint64_t replicaFailures = 0;
    std::uint64_t failovers = 0;
    std::uint64_t autoscaleUps = 0;
    std::uint64_t checkpointsSaved = 0;
    std::uint64_t reoffered = 0;
    std::uint64_t breakerTrips = 0;
    std::uint64_t brownoutEntries = 0;
    std::uint64_t brownoutCompleted = 0;
    std::uint64_t brownoutGoodput = 0;
    std::uint64_t nextReofferId = 0; ///< fresh ids for re-offers
    std::uint8_t brownoutActive = 0;
    double brownoutSinceSec = 0; ///< entry instant while active
    double brownoutSec = 0;      ///< accumulated over closed windows

    std::vector<PendingRequest> queue;
    std::vector<PendingRequest> reoffers; ///< due at eligibleSec
    std::vector<ReplicaState> replicas;
    std::vector<std::uint64_t> hedgedIds;  ///< sorted: ids with copies
    std::vector<std::uint64_t> hedgedDone; ///< sorted: winner answered
    std::vector<double> latencies; ///< every completed request
    std::vector<double> completionsSec;    ///< aligned with latencies
    std::vector<std::uint8_t> completedOnTime; ///< aligned, 0/1
    std::string eventLog;
};

/// @{ Smallest encodings of one list element, bounding list counts.
constexpr std::size_t kRequestBytes = 7 * sizeof(std::uint64_t);
constexpr std::size_t kReplicaBytes = 10 * sizeof(std::uint64_t);
/// @}

void
writeRequest(std::string &buf, const PendingRequest &r)
{
    writeU64(buf, r.id);
    writeU64(buf, r.tier);
    writeDouble(buf, r.arrivalSec);
    writeDouble(buf, r.deadlineSec);
    writeU64(buf, r.attempt);
    writeDouble(buf, r.eligibleSec);
    writeU64(buf, (std::uint64_t(r.reoffers) << 2) |
                      (std::uint64_t(r.hedged) << 1) | r.copy);
}

bool
readRequest(ByteReader &rd, PendingRequest &r)
{
    std::uint64_t tier = 0, attempt = 0, flags = 0;
    if (!rd.readU64(r.id) || !rd.readU64(tier) ||
        !rd.readDouble(r.arrivalSec) || !rd.readDouble(r.deadlineSec) ||
        !rd.readU64(attempt) || !rd.readDouble(r.eligibleSec) ||
        !rd.readU64(flags))
        return false;
    r.tier = std::uint32_t(tier);
    r.attempt = std::uint32_t(attempt);
    r.hedged = std::uint8_t((flags >> 1) & 1);
    r.copy = std::uint8_t(flags & 1);
    r.reoffers = std::uint8_t((flags >> 2) & 0xff);
    return true;
}

/** Field-wise serialization of the whole state (blob payload). */
std::string
serializeState(const ServingState &s)
{
    std::string buf;
    buf.reserve(256 + s.queue.size() * 56 + s.replicas.size() * 72 +
                s.latencies.size() * 8 + s.eventLog.size());
    writeU64(buf, s.sequence);
    writeDouble(buf, s.simTimeSec);
    writeU64(buf, s.arrivalCursor);
    writeU64(buf, s.faultCursor);
    writeU64(buf, s.sparesLeft);
    writeU64(buf, s.scaleUpsLeft);
    writeDouble(buf, s.nextAutoscaleSec);
    writeDouble(buf, s.lastCheckpointSec);
    writeU64(buf, s.offered);
    writeU64(buf, s.admitted);
    writeU64(buf, s.shed);
    writeU64(buf, s.completed);
    writeU64(buf, s.goodput);
    writeU64(buf, s.retries);
    writeU64(buf, s.hedges);
    writeU64(buf, s.replicaFailures);
    writeU64(buf, s.failovers);
    writeU64(buf, s.autoscaleUps);
    writeU64(buf, s.checkpointsSaved);
    writeU64(buf, s.reoffered);
    writeU64(buf, s.breakerTrips);
    writeU64(buf, s.brownoutEntries);
    writeU64(buf, s.brownoutCompleted);
    writeU64(buf, s.brownoutGoodput);
    writeU64(buf, s.nextReofferId);
    writeU64(buf, s.brownoutActive);
    writeDouble(buf, s.brownoutSinceSec);
    writeDouble(buf, s.brownoutSec);
    writeU64(buf, s.queue.size());
    for (const PendingRequest &r : s.queue)
        writeRequest(buf, r);
    writeU64(buf, s.reoffers.size());
    for (const PendingRequest &r : s.reoffers)
        writeRequest(buf, r);
    writeU64(buf, s.replicas.size());
    for (const ReplicaState &r : s.replicas) {
        writeU64(buf, r.status);
        writeDouble(buf, r.readyAtSec);
        writeDouble(buf, r.busyUntilSec);
        writeDouble(buf, r.dispatchedSec);
        writeDouble(buf, r.stragglerFactor);
        writeDouble(buf, r.stragglerUntilSec);
        writeU64(buf, (std::uint64_t(r.degraded) << 1) |
                          r.hedgeIssued);
        writeDouble(buf, r.healthScore);
        writeDouble(buf, r.breakerUntilSec);
        writeU64(buf, r.batch.size());
        for (const PendingRequest &b : r.batch)
            writeRequest(buf, b);
    }
    writeU64(buf, s.hedgedIds.size());
    for (std::uint64_t id : s.hedgedIds)
        writeU64(buf, id);
    writeU64(buf, s.hedgedDone.size());
    for (std::uint64_t id : s.hedgedDone)
        writeU64(buf, id);
    writeU64(buf, s.latencies.size());
    for (double v : s.latencies)
        writeDouble(buf, v);
    writeU64(buf, s.completionsSec.size());
    for (double v : s.completionsSec)
        writeDouble(buf, v);
    writeBytes(buf, std::string(s.completedOnTime.begin(),
                                s.completedOnTime.end()));
    writeBytes(buf, s.eventLog);
    return buf;
}

bool
deserializeState(const std::string &payload, ServingState &out)
{
    ByteReader rd{payload};
    ServingState s;
    std::uint64_t n = 0;
    if (!rd.readU64(s.sequence) || !rd.readDouble(s.simTimeSec) ||
        !rd.readU64(s.arrivalCursor) || !rd.readU64(s.faultCursor) ||
        !rd.readU64(s.sparesLeft) || !rd.readU64(s.scaleUpsLeft) ||
        !rd.readDouble(s.nextAutoscaleSec) ||
        !rd.readDouble(s.lastCheckpointSec) || !rd.readU64(s.offered) ||
        !rd.readU64(s.admitted) || !rd.readU64(s.shed) ||
        !rd.readU64(s.completed) || !rd.readU64(s.goodput) ||
        !rd.readU64(s.retries) || !rd.readU64(s.hedges) ||
        !rd.readU64(s.replicaFailures) || !rd.readU64(s.failovers) ||
        !rd.readU64(s.autoscaleUps) || !rd.readU64(s.checkpointsSaved))
        return false;
    std::uint64_t brownout_active = 0;
    if (!rd.readU64(s.reoffered) || !rd.readU64(s.breakerTrips) ||
        !rd.readU64(s.brownoutEntries) ||
        !rd.readU64(s.brownoutCompleted) ||
        !rd.readU64(s.brownoutGoodput) ||
        !rd.readU64(s.nextReofferId) || !rd.readU64(brownout_active) ||
        !rd.readDouble(s.brownoutSinceSec) ||
        !rd.readDouble(s.brownoutSec))
        return false;
    s.brownoutActive = std::uint8_t(brownout_active);
    if (!rd.readCount(n, kRequestBytes))
        return false;
    s.queue.resize(std::size_t(n));
    for (PendingRequest &r : s.queue)
        if (!readRequest(rd, r))
            return false;
    if (!rd.readCount(n, kRequestBytes))
        return false;
    s.reoffers.resize(std::size_t(n));
    for (PendingRequest &r : s.reoffers)
        if (!readRequest(rd, r))
            return false;
    if (!rd.readCount(n, kReplicaBytes))
        return false;
    s.replicas.resize(std::size_t(n));
    for (ReplicaState &r : s.replicas) {
        std::uint64_t status = 0, flags = 0, batch = 0;
        if (!rd.readU64(status) || !rd.readDouble(r.readyAtSec) ||
            !rd.readDouble(r.busyUntilSec) ||
            !rd.readDouble(r.dispatchedSec) ||
            !rd.readDouble(r.stragglerFactor) ||
            !rd.readDouble(r.stragglerUntilSec) ||
            !rd.readU64(flags) || !rd.readDouble(r.healthScore) ||
            !rd.readDouble(r.breakerUntilSec) ||
            !rd.readCount(batch, kRequestBytes))
            return false;
        r.status = std::uint32_t(status);
        r.hedgeIssued = std::uint8_t(flags & 1);
        r.degraded = std::uint8_t((flags >> 1) & 1);
        r.batch.resize(std::size_t(batch));
        for (PendingRequest &b : r.batch)
            if (!readRequest(rd, b))
                return false;
    }
    if (!rd.readCount(n, sizeof(std::uint64_t)))
        return false;
    s.hedgedIds.resize(std::size_t(n));
    for (std::uint64_t &id : s.hedgedIds)
        if (!rd.readU64(id))
            return false;
    if (!rd.readCount(n, sizeof(std::uint64_t)))
        return false;
    s.hedgedDone.resize(std::size_t(n));
    for (std::uint64_t &id : s.hedgedDone)
        if (!rd.readU64(id))
            return false;
    if (!rd.readCount(n, sizeof(std::uint64_t)))
        return false;
    s.latencies.resize(std::size_t(n));
    for (double &v : s.latencies)
        if (!rd.readDouble(v))
            return false;
    if (!rd.readCount(n, sizeof(std::uint64_t)))
        return false;
    s.completionsSec.resize(std::size_t(n));
    for (double &v : s.completionsSec)
        if (!rd.readDouble(v))
            return false;
    std::string on_time;
    if (!rd.readBytes(on_time, payload.size()) ||
        !rd.readBytes(s.eventLog, payload.size()) || !rd.atEnd())
        return false;
    s.completedOnTime.assign(on_time.begin(), on_time.end());
    out = std::move(s);
    return true;
}

bool
sortedContains(const std::vector<std::uint64_t> &v, std::uint64_t id)
{
    return std::binary_search(v.begin(), v.end(), id);
}

void
sortedInsert(std::vector<std::uint64_t> &v, std::uint64_t id)
{
    const auto it = std::lower_bound(v.begin(), v.end(), id);
    if (it == v.end() || *it != id)
        v.insert(it, id);
}

/** Dispatch order: tightest deadline first, then stable identity. */
bool
requestBefore(const PendingRequest &a, const PendingRequest &b)
{
    if (a.deadlineSec != b.deadlineSec)
        return a.deadlineSec < b.deadlineSec;
    if (a.id != b.id)
        return a.id < b.id;
    if (a.attempt != b.attempt)
        return a.attempt < b.attempt;
    return a.copy < b.copy;
}

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const double rank = q * double(sorted.size());
    std::size_t idx = std::size_t(std::ceil(rank));
    idx = idx > 0 ? idx - 1 : 0;
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** The engine: immutable inputs + kernel + checkpointable state. */
struct FleetEngine
{
    FleetEngine(const std::vector<Request> &arrivals_,
                const std::vector<QosTier> &tiers_,
                const BatchLatencyModel &model_,
                const FaultSchedule &faults_,
                const FleetOptions &options_,
                const BatchLatencyModel *brownout_model_)
        : arrivals(arrivals_), tiers(tiers_), model(model_),
          faults(faults_), options(options_),
          brownoutModel(options_.brownout.enabled ? brownout_model_
                                                  : nullptr)
    {
    }

    const std::vector<Request> &arrivals;
    const std::vector<QosTier> &tiers;
    const BatchLatencyModel &model;
    const FaultSchedule &faults;
    const FleetOptions &options;
    const BatchLatencyModel *brownoutModel; ///< null = no ladder

    std::vector<FaultEvent> faultEvents; ///< core-kind, time-sorted
    std::string runId;
    double serviceLatencySec = 0;
    unsigned maxBatch = 1;
    double brownoutServiceLatencySec = 0;
    unsigned brownoutMaxBatch = 1;

    std::unique_ptr<CheckpointStore> store;
    ServingState s;
    std::uint64_t eventIndex = 0; ///< lines in s.eventLog
    unsigned eventsSeen = 0;      ///< this process only (halt hook)
    bool haltRequested = false;
    std::optional<FleetResult> final_;

    void
    setUp()
    {
        simAssert(options.replicas > 0,
                  "a fleet needs at least one replica");
        simAssert(!tiers.empty(), "a fleet needs at least one tier");
        for (const Request &r : arrivals)
            simAssert(r.tier < tiers.size(),
                      "request tier out of range");
        for (const FaultEvent &e : faults.events())
            if (e.kind == FaultKind::CorePermanent ||
                e.kind == FaultKind::CoreTransient ||
                e.kind == FaultKind::CoreStraggler)
                faultEvents.push_back(e);
        maxBatch = model.maxBatch();
        // Service-time term of the admission estimate: under the
        // overload that makes admission matter, a request rides a
        // near-full batch, so the full-batch latency is the honest
        // estimate (the single-request latency undercounts and lets
        // through requests that then complete past their deadline).
        serviceLatencySec = model.latencySeconds(maxBatch);
        if (brownoutModel) {
            brownoutMaxBatch = brownoutModel->maxBatch();
            brownoutServiceLatencySec =
                brownoutModel->latencySeconds(brownoutMaxBatch);
        }

        runId = runFingerprint(arrivals, tiers, model, faults,
                               options, brownoutModel);
        s.replicas.resize(options.replicas);
        s.sparesLeft = options.warmSpares;
        s.scaleUpsLeft =
            options.autoscale.enabled
                ? options.autoscale.maxExtraReplicas : 0;
        s.nextAutoscaleSec = options.autoscale.checkIntervalSec;

        if (!options.checkpointDir.empty()) {
            store = std::make_unique<CheckpointStore>(
                options.checkpointDir, "serving");
            std::string payload;
            ServingState loaded;
            if (store->loadBlob(payload, runId) &&
                deserializeState(payload, loaded))
                s = std::move(loaded);
        }
        for (char c : s.eventLog)
            if (c == '\n')
                ++eventIndex;
    }

    void
    appendEvent(const std::string &line)
    {
        s.eventLog += line;
        s.eventLog += '\n';
        ++eventIndex;
        ++eventsSeen;
        if (options.onEvent)
            options.onEvent(line);
        if (options.haltAfterEvents &&
            eventsSeen >= options.haltAfterEvents)
            haltRequested = true;
    }

    std::string
    eventPrefix() const
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "[e%05llu] t=%s ",
                      static_cast<unsigned long long>(eventIndex),
                      formatSeconds(s.simTimeSec).c_str());
        return buf;
    }

    unsigned
    aliveReplicas() const
    {
        unsigned n = 0;
        for (const ReplicaState &r : s.replicas)
            if (r.status != kDead)
                ++n;
        return n;
    }

    /// @{ Brownout-aware curve: the ladder switches every *new*
    /// dispatch (and the admission estimate) to the cheaper model.
    const BatchLatencyModel &
    activeModel() const
    {
        return (brownoutModel && s.brownoutActive) ? *brownoutModel
                                                   : model;
    }

    unsigned
    activeMaxBatch() const
    {
        return (brownoutModel && s.brownoutActive) ? brownoutMaxBatch
                                                   : maxBatch;
    }

    double
    activeServiceLatencySec() const
    {
        return (brownoutModel && s.brownoutActive)
                   ? brownoutServiceLatencySec
                   : serviceLatencySec;
    }
    /// @}

    /**
     * HealthPolicy accounting: a core fault raises the replica's
     * score; crossing the threshold opens its breaker for cooloffSec
     * (score halved, so the first post-cooloff dispatch is the
     * half-open probe).
     */
    void
    bumpHealth(unsigned idx, double t)
    {
        if (!options.health.enabled)
            return;
        ReplicaState &r = s.replicas[idx];
        r.healthScore += options.health.faultScore;
        if (r.healthScore >= options.health.breakerThreshold) {
            r.breakerUntilSec = t + options.health.cooloffSec;
            r.healthScore = 0.5 * options.health.breakerThreshold;
            ++s.breakerTrips;
            appendEvent(eventPrefix() + "breaker open replica " +
                        std::to_string(idx) + " until " +
                        formatSeconds(r.breakerUntilSec));
        }
    }

    /**
     * Closed-loop client model: a shed request is re-offered after a
     * think delay (jittered when the retry policy says so), up to
     * maxReoffers times. The re-offer is a brand-new request — fresh
     * id, fresh offered count, fresh deadline from its re-offer
     * instant — so the conservation law stays exact.
     */
    void
    maybeReoffer(const PendingRequest &req, double t)
    {
        if (!options.reoffer.enabled ||
            req.reoffers >= options.reoffer.maxReoffers)
            return;
        double delay = options.reoffer.delaySec;
        if (options.retry.jitterFraction > 0) {
            const double f =
                std::min(options.retry.jitterFraction, 1.0);
            delay *= 1.0 - f * resilience::retryJitterUnit(
                                   options.retry, req.id,
                                   0x8000u + req.reoffers);
        }
        PendingRequest r;
        r.id = (std::uint64_t(1) << 48) + s.nextReofferId++;
        r.tier = req.tier;
        r.eligibleSec = t + delay;
        r.reoffers = std::uint8_t(req.reoffers + 1);
        ++s.reoffered;
        s.reoffers.push_back(r);
    }

    /** Shed accounting for one queue instance (+ the re-offer hook). */
    void
    shedInstance(const PendingRequest &req, double t)
    {
        if (req.copy)
            return; // the original carries the book-keeping
        ++s.shed;
        maybeReoffer(req, t);
    }

    /** Take the cadenced on-disk checkpoint (quiescent hook body). */
    void
    maybeCheckpoint()
    {
        if (haltRequested || !store)
            return;
        if (s.lastCheckpointSec >= 0 &&
            s.simTimeSec - s.lastCheckpointSec <
                options.checkpointIntervalSec)
            return;
        ++s.sequence;
        ++s.checkpointsSaved;
        s.lastCheckpointSec = s.simTimeSec;
        appendEvent(eventPrefix() + "checkpoint seq " +
                    std::to_string(static_cast<unsigned long long>(
                        s.sequence)));
        store->saveBlob(runId, serializeState(s));
    }

    /**
     * Re-queue an in-flight request its replica lost. Retry number
     * attempt is launched only while RetryPolicy permits it — with
     * giveUpAfterSeconds wired to the tier deadline, a request whose
     * cumulative retry delay cannot fit its SLO is abandoned instead
     * of burning capacity (counted as shed).
     */
    void
    requeueLost(const PendingRequest &req, double t)
    {
        if (req.hedged && sortedContains(s.hedgedDone, req.id))
            return; // its twin already answered
        resilience::RetryPolicy policy = options.retry;
        policy.giveUpAfterSeconds = tiers[req.tier].deadlineSec;
        if (!resilience::retryPermitted(policy, req.attempt)) {
            shedInstance(req, t);
            return;
        }
        PendingRequest r = req;
        // Jitter keys on the request id: a correlated fault drops a
        // whole rack's worth of in-flight work at one instant, and
        // identical backoff would re-dispatch it as one synchronized
        // wave. Bit-identical to the unjittered delay at fraction 0.
        r.eligibleSec = t + policy.timeoutSec +
                        resilience::retryDelaySecondsJittered(
                            policy, req.attempt, req.id);
        ++r.attempt;
        ++s.retries;
        s.queue.push_back(r);
    }

    /** Apply the single next due fault (one poll dispatch's worth). */
    void
    applyOneFault(double t)
    {
        const FaultEvent e = faultEvents[s.faultCursor++];
        if (e.target >= s.replicas.size())
            return; // outside the fleet
        ReplicaState &r = s.replicas[e.target];
        if (r.status == kDead)
            return;
        switch (e.kind) {
          case FaultKind::CorePermanent: {
            ++s.replicaFailures;
            for (const PendingRequest &req : r.batch)
                requeueLost(req, t);
            r.batch.clear();
            r.hedgeIssued = 0;
            if (s.sparesLeft > 0) {
                --s.sparesLeft;
                ++s.failovers;
                r.status = kSpinningUp;
                r.readyAtSec = t + options.failoverSec;
                r.stragglerFactor = 1.0;
                r.stragglerUntilSec = 0;
                r.healthScore = 0; // the spare is a fresh machine
                r.breakerUntilSec = 0;
                appendEvent(eventPrefix() + "failover replica " +
                            std::to_string(e.target) + " ready " +
                            formatSeconds(r.readyAtSec));
            } else {
                r.status = kDead;
                appendEvent(eventPrefix() + "replica " +
                            std::to_string(e.target) + " dead");
            }
            break;
          }
          case FaultKind::CoreTransient: {
            ++s.replicaFailures;
            for (const PendingRequest &req : r.batch)
                requeueLost(req, t);
            r.batch.clear();
            r.hedgeIssued = 0;
            r.status = kSpinningUp;
            r.readyAtSec = t + e.durationSec;
            appendEvent(eventPrefix() + "replica " +
                        std::to_string(e.target) + " outage until " +
                        formatSeconds(r.readyAtSec));
            bumpHealth(e.target, t);
            break;
          }
          case FaultKind::CoreStraggler: {
            r.stragglerFactor = e.severity;
            r.stragglerUntilSec =
                e.durationSec > 0 ? t + e.durationSec : kInf;
            appendEvent(eventPrefix() + "replica " +
                        std::to_string(e.target) + " straggles x" +
                        formatSeconds(e.severity));
            bumpHealth(e.target, t);
            break;
          }
          default:
            break; // link/ECC faults do not apply to stateless replicas
        }
    }

    /** Record one answered request (hedged copies dedup first-wins). */
    void
    complete(const PendingRequest &req, double t, bool degraded)
    {
        if (req.hedged) {
            if (sortedContains(s.hedgedDone, req.id))
                return; // the losing copy
            sortedInsert(s.hedgedDone, req.id);
        }
        ++s.completed;
        const double latency = t - req.arrivalSec;
        const bool on_time = t <= req.deadlineSec;
        s.latencies.push_back(latency);
        s.completionsSec.push_back(t);
        s.completedOnTime.push_back(on_time ? 1 : 0);
        if (on_time)
            ++s.goodput;
        if (degraded) {
            ++s.brownoutCompleted;
            if (on_time)
                ++s.brownoutGoodput;
        }
    }

    /**
     * Admission control at the front door. Sheds when the queue is
     * full, or when a sheddable request's estimated completion
     * (queue-drain at full-batch service rate plus one service time)
     * cannot meet its deadline.
     */
    void
    admit(const Request &arrival)
    {
        PendingRequest r;
        r.id = arrival.id;
        r.tier = arrival.tier;
        r.arrivalSec = arrival.arrivalSec;
        offerPending(r, arrival.arrivalSec);
    }

    /**
     * One offer at the front door — a fresh arrival or a closed-loop
     * re-offer. Each call counts offered exactly once and ends
     * admitted or shed, so conservation holds per instance.
     */
    void
    offerPending(PendingRequest r, double t)
    {
        ++s.offered;
        const QosTier &tier = tiers[r.tier];
        r.deadlineSec = r.arrivalSec + tier.deadlineSec;
        r.eligibleSec = r.arrivalSec;
        if (options.admission.enabled) {
            if (options.admission.queueCapacity &&
                s.queue.size() >= options.admission.queueCapacity) {
                shedInstance(r, t);
                return;
            }
            if (tier.sheddable) {
                const unsigned alive = aliveReplicas();
                // The estimate rides the *active* curve: on the
                // brownout ladder the cheaper model's higher service
                // rate is precisely why the fleet can stop shedding.
                const double rate =
                    alive ? double(alive) * double(activeMaxBatch()) /
                                activeServiceLatencySec()
                          : 0;
                const double wait =
                    rate > 0 ? double(s.queue.size()) / rate : kInf;
                if (wait + activeServiceLatencySec() >
                    tier.deadlineSec * options.admission.slackFactor) {
                    shedInstance(r, t);
                    return;
                }
            }
        }
        ++s.admitted;
        s.queue.push_back(r);
    }

    /**
     * Hedge a straggling dispatch: duplicates of its unanswered
     * requests re-enter the queue; first completion wins.
     */
    void
    hedgeDispatch(unsigned idx, double t)
    {
        ReplicaState &r = s.replicas[idx];
        r.hedgeIssued = 1;
        unsigned copies = 0;
        for (PendingRequest &req : r.batch) {
            if (sortedContains(s.hedgedDone, req.id))
                continue;
            req.hedged = 1;
            sortedInsert(s.hedgedIds, req.id);
            PendingRequest dup = req;
            dup.copy = 1;
            dup.eligibleSec = t;
            s.queue.push_back(dup);
            ++copies;
            ++s.hedges;
        }
        if (copies)
            appendEvent(eventPrefix() + "hedge replica " +
                        std::to_string(idx) + " copies " +
                        std::to_string(copies));
    }

    /**
     * Drop queue entries that can no longer matter: losing hedge
     * copies, and — when shedding is on — requests already past
     * their deadline (the expired-at-dispatch drop).
     */
    void
    purgeQueue(double t)
    {
        std::vector<PendingRequest> kept;
        kept.reserve(s.queue.size());
        for (const PendingRequest &req : s.queue) {
            if (req.hedged && sortedContains(s.hedgedDone, req.id))
                continue;
            if (options.admission.enabled && t > req.deadlineSec) {
                shedInstance(req, t);
                continue;
            }
            kept.push_back(req);
        }
        s.queue.swap(kept);
    }

    /**
     * Form one batch for replica @p idx from the eligible queue.
     * MPAM-style reservation first — each tier gets up to its
     * reservedSlots before the remainder fills by deadline order —
     * so a burst of sheddable traffic cannot starve the guaranteed
     * tier out of every batch.
     */
    void
    dispatchReplica(unsigned idx, double t)
    {
        ReplicaState &r = s.replicas[idx];
        std::vector<PendingRequest> eligible, waiting;
        for (const PendingRequest &req : s.queue)
            (req.eligibleSec <= t ? eligible : waiting)
                .push_back(req);
        if (eligible.empty())
            return;
        std::stable_sort(eligible.begin(), eligible.end(),
                         requestBefore);

        const std::size_t cap = activeMaxBatch();
        std::vector<char> taken(eligible.size(), 0);
        std::vector<PendingRequest> batch;
        for (std::uint32_t ti = 0;
             ti < std::uint32_t(tiers.size()) && batch.size() < cap;
             ++ti) {
            unsigned got = 0;
            for (std::size_t i = 0; i < eligible.size() &&
                                    got < tiers[ti].reservedSlots &&
                                    batch.size() < cap;
                 ++i) {
                if (taken[i] || eligible[i].tier != ti)
                    continue;
                taken[i] = 1;
                batch.push_back(eligible[i]);
                ++got;
            }
        }
        for (std::size_t i = 0;
             i < eligible.size() && batch.size() < cap; ++i) {
            if (taken[i])
                continue;
            taken[i] = 1;
            batch.push_back(eligible[i]);
        }

        for (std::size_t i = 0; i < eligible.size(); ++i)
            if (!taken[i])
                waiting.push_back(eligible[i]);
        s.queue.swap(waiting);

        const double factor =
            t < r.stragglerUntilSec ? r.stragglerFactor : 1.0;
        r.status = kBusy;
        r.dispatchedSec = t;
        r.busyUntilSec =
            t + activeModel().latencySeconds(unsigned(batch.size())) *
                    factor;
        r.hedgeIssued = 0;
        r.degraded = (brownoutModel && s.brownoutActive) ? 1 : 0;
        r.batch = std::move(batch);
        if (obs::Tracer *tracer = obs::Tracer::current()) {
            const auto ns = [](double sec) {
                return std::uint64_t(std::llround(sec * 1e9));
            };
            tracer->span(obs::Domain::Serving, idx + 2,
                         "serving.batch", ns(t),
                         ns(r.busyUntilSec) - ns(t),
                         r.batch.size());
        }
    }

    /** Earliest future decision instant (kInf = nothing left). */
    double
    nextInstant(double t) const
    {
        double next = kInf;
        if (s.arrivalCursor < arrivals.size())
            next = std::min(next,
                            arrivals[s.arrivalCursor].arrivalSec);
        if (s.faultCursor < faultEvents.size())
            next = std::min(next,
                            faultEvents[s.faultCursor].timeSec);
        for (const ReplicaState &r : s.replicas) {
            if (r.status == kBusy) {
                next = std::min(next, r.busyUntilSec);
                if (options.hedge.enabled && !r.hedgeIssued) {
                    const double h =
                        r.dispatchedSec + options.hedge.afterSec;
                    if (h < r.busyUntilSec)
                        next = std::min(next, h);
                }
            } else if (r.status == kSpinningUp) {
                next = std::min(next, r.readyAtSec);
            }
        }
        for (const PendingRequest &req : s.queue)
            if (req.eligibleSec > t)
                next = std::min(next, req.eligibleSec);
        for (const PendingRequest &req : s.reoffers)
            if (req.eligibleSec > t)
                next = std::min(next, req.eligibleSec);
        if (options.health.enabled && !s.queue.empty()) {
            // An open breaker is a decision instant: the replica is
            // idle but skipped, and nothing else may wake the step
            // before the half-open probe becomes legal.
            for (const ReplicaState &r : s.replicas)
                if (r.status == kIdle && r.breakerUntilSec > t)
                    next = std::min(next, r.breakerUntilSec);
        }
        if (brownoutModel && s.brownoutActive &&
            options.brownout.minResidencySec > 0) {
            const double residency =
                s.brownoutSinceSec + options.brownout.minResidencySec;
            if (residency > t)
                next = std::min(next, residency);
        }
        if (options.autoscale.enabled && !s.queue.empty() &&
            s.scaleUpsLeft > 0)
            next = std::min(next, std::max(s.nextAutoscaleSec, t));
        return next;
    }

    /** True when no request can ever be answered again. */
    bool
    fleetDoomed() const
    {
        return aliveReplicas() == 0 && s.sparesLeft == 0 &&
               s.scaleUpsLeft == 0;
    }

    /** Arm the chain at @p t: quiescent(0), fault poll(1), step(2). */
    void
    armStep(des::Kernel &k, double t)
    {
        s.simTimeSec = t;
        k.scheduleQuiescent(t, 0);
        k.schedule(t, 1, "serving.poll-faults",
                   [this](des::Kernel &kk) { pollFaults(kk); });
        k.schedule(t, 2, "serving.step",
                   [this](des::Kernel &kk) { stepOnce(kk); });
    }

    /** Fault poll event: ONE due fault, re-arm while more are due. */
    void
    pollFaults(des::Kernel &k)
    {
        if (haltRequested) {
            final_ = result();
            k.stop();
            return;
        }
        if (s.faultCursor < faultEvents.size() &&
            faultEvents[s.faultCursor].timeSec <= s.simTimeSec) {
            applyOneFault(s.simTimeSec);
            k.schedule(k.now(), 1, "serving.poll-faults",
                       [this](des::Kernel &kk) { pollFaults(kk); });
        }
    }

    /** The step event: one decision instant, then re-arm or finish. */
    void
    stepOnce(des::Kernel &k)
    {
        if (haltRequested) {
            final_ = result();
            k.stop();
            return;
        }
        const double t = s.simTimeSec;

        // Completions first: capacity freed at t serves requests
        // arriving at the same instant.
        for (ReplicaState &r : s.replicas) {
            if (r.status != kBusy || r.busyUntilSec > t)
                continue;
            for (const PendingRequest &req : r.batch)
                complete(req, t, r.degraded != 0);
            r.batch.clear();
            r.status = kIdle;
            r.hedgeIssued = 0;
            r.degraded = 0;
            if (options.health.enabled)
                r.healthScore *= options.health.successDecay;
        }
        for (ReplicaState &r : s.replicas)
            if (r.status == kSpinningUp && r.readyAtSec <= t)
                r.status = kIdle;
        while (s.arrivalCursor < arrivals.size() &&
               arrivals[s.arrivalCursor].arrivalSec <= t)
            admit(arrivals[s.arrivalCursor++]);
        if (!s.reoffers.empty()) {
            // Closed-loop clients whose think time has elapsed
            // re-offer their shed request as a brand-new arrival.
            std::vector<PendingRequest> later;
            std::vector<PendingRequest> due;
            for (const PendingRequest &req : s.reoffers)
                (req.eligibleSec <= t ? due : later).push_back(req);
            s.reoffers.swap(later);
            for (PendingRequest &req : due) {
                req.arrivalSec = t;
                offerPending(req, t);
            }
        }
        if (options.hedge.enabled) {
            for (unsigned i = 0; i < unsigned(s.replicas.size());
                 ++i) {
                ReplicaState &r = s.replicas[i];
                if (r.status == kBusy && !r.hedgeIssued &&
                    t >= r.dispatchedSec + options.hedge.afterSec)
                    hedgeDispatch(i, t);
            }
        }
        if (options.autoscale.enabled && t >= s.nextAutoscaleSec) {
            if (s.scaleUpsLeft > 0 &&
                s.queue.size() >
                    options.autoscale.queueDepthPerReplica *
                        std::size_t(aliveReplicas())) {
                --s.scaleUpsLeft;
                ++s.autoscaleUps;
                ReplicaState fresh;
                fresh.status = kSpinningUp;
                fresh.readyAtSec = t + options.autoscale.spinUpSec;
                s.replicas.push_back(fresh);
                appendEvent(eventPrefix() + "autoscale to " +
                            std::to_string(s.replicas.size()) +
                            " replicas ready " +
                            formatSeconds(fresh.readyAtSec));
            }
            s.nextAutoscaleSec =
                t + options.autoscale.checkIntervalSec;
        }

        if (fleetDoomed()) {
            // Nothing can serve again: account every queued and
            // future request as shed and drain.
            std::uint64_t lost = 0;
            for (const PendingRequest &req : s.queue)
                if (!req.copy)
                    ++lost;
            s.shed += lost;
            s.queue.clear();
            // Pending re-offers were never offered; dropping them
            // keeps completed + shed == offered intact.
            s.reoffers.clear();
            const std::uint64_t remaining =
                arrivals.size() - s.arrivalCursor;
            s.offered += remaining;
            s.shed += remaining;
            s.arrivalCursor = arrivals.size();
            appendEvent(eventPrefix() + "fleet dead, dropped " +
                        std::to_string(static_cast<unsigned long long>(
                            lost + remaining)));
            if (haltRequested) {
                final_ = result();
                k.stop();
                return;
            }
            final_ = finish();
            return;
        }

        purgeQueue(t);
        if (brownoutModel) {
            const std::size_t alive =
                std::max<std::size_t>(aliveReplicas(), 1);
            if (!s.brownoutActive &&
                s.queue.size() >
                    options.brownout.enterQueueDepthPerReplica *
                        alive) {
                s.brownoutActive = 1;
                s.brownoutSinceSec = t;
                ++s.brownoutEntries;
                appendEvent(eventPrefix() + "brownout enter depth " +
                            std::to_string(s.queue.size()));
            } else if (s.brownoutActive &&
                       s.queue.size() <=
                           options.brownout.exitQueueDepthPerReplica *
                               alive &&
                       t - s.brownoutSinceSec >=
                           options.brownout.minResidencySec) {
                s.brownoutActive = 0;
                s.brownoutSec += t - s.brownoutSinceSec;
                appendEvent(eventPrefix() + "brownout exit depth " +
                            std::to_string(s.queue.size()));
            }
        }
        for (unsigned i = 0; i < unsigned(s.replicas.size()); ++i) {
            if (s.replicas[i].status != kIdle || s.queue.empty())
                continue;
            if (options.health.enabled &&
                t < s.replicas[i].breakerUntilSec)
                continue; // breaker open: skip until half-open probe
            dispatchReplica(i, t);
        }
        if (obs::Tracer *tracer = obs::Tracer::current())
            tracer->counter(obs::Domain::Serving, "serving.queue",
                            std::uint64_t(std::llround(t * 1e9)),
                            double(s.queue.size()));

        if (haltRequested) {
            final_ = result();
            k.stop();
            return;
        }

        const double next = nextInstant(t);
        if (next == kInf) {
            final_ = finish();
            return;
        }
        simAssert(next > t,
                  "serving chain must advance the sim clock");
        armStep(k, next);
    }

    /** Snapshot counters into a result (shared by halt and finish). */
    FleetResult
    result() const
    {
        FleetResult r;
        r.offered = s.offered;
        r.admitted = s.admitted;
        r.shed = s.shed;
        r.completed = s.completed;
        r.goodput = s.goodput;
        r.retries = s.retries;
        r.hedges = s.hedges;
        r.replicaFailures = s.replicaFailures;
        r.failovers = s.failovers;
        r.autoscaleUps = s.autoscaleUps;
        r.checkpointsSaved = s.checkpointsSaved;
        r.reoffered = s.reoffered;
        r.breakerTrips = s.breakerTrips;
        r.brownoutEntries = s.brownoutEntries;
        r.brownoutCompleted = s.brownoutCompleted;
        r.brownoutGoodput = s.brownoutGoodput;
        r.brownoutSec = s.brownoutSec;
        if (s.brownoutActive)
            r.brownoutSec += s.simTimeSec - s.brownoutSinceSec;
        r.halted = haltRequested;
        r.makespanSec = s.simTimeSec;
        r.latencies = s.latencies;
        r.completionsSec = s.completionsSec;
        r.completedOnTime = s.completedOnTime;
        r.eventLog = s.eventLog;
        std::vector<double> sorted = s.latencies;
        std::sort(sorted.begin(), sorted.end());
        r.p50 = percentile(sorted, 0.50);
        r.p99 = percentile(sorted, 0.99);
        r.p999 = percentile(sorted, 0.999);
        return r;
    }

    /** Natural completion: charge totals, drop the checkpoint file. */
    FleetResult
    finish()
    {
        FleetResult r = result();
        if (store)
            store->remove();
        // Sim-time counters: deterministic at any thread count.
        static runtime::Counter &runs = runtime::counter(
            "serving runs", runtime::CounterKind::Sum,
            runtime::Determinism::Deterministic);
        static const runtime::FieldCounters<FleetResult> fields = {
            {"serving offered", &FleetResult::offered},
            {"serving admitted", &FleetResult::admitted},
            {"serving shed", &FleetResult::shed},
            {"serving completed", &FleetResult::completed},
            {"serving goodput", &FleetResult::goodput},
            {"serving retries", &FleetResult::retries},
            {"serving hedges", &FleetResult::hedges},
            {"serving failures", &FleetResult::replicaFailures},
            {"serving failovers", &FleetResult::failovers},
            {"serving autoscale-ups", &FleetResult::autoscaleUps},
            {"serving checkpoints", &FleetResult::checkpointsSaved},
            {"serving reoffers", &FleetResult::reoffered},
            {"serving breaker trips", &FleetResult::breakerTrips},
            {"serving brownouts", &FleetResult::brownoutEntries},
        };
        runs.charge(1);
        fields.charge(r);
        if (obs::Tracer *tracer = obs::Tracer::current())
            tracer->span(obs::Domain::Serving, 1, "serving.run", 0,
                         std::uint64_t(
                             std::llround(r.makespanSec * 1e9)),
                         r.completed);
        return r;
    }

    FleetResult
    run()
    {
        setUp();
        des::Kernel kernel;
        // Checkpoints ride the kernel's quiescent points: no event is
        // mid-dispatch there, so the ServingState is consistent by
        // construction.
        kernel.onQuiescent(
            [this](des::Kernel &) { maybeCheckpoint(); });
        kernel.advanceTo(s.simTimeSec); // resumes re-enter mid-run
        armStep(kernel, s.simTimeSec);
        kernel.run();
        simAssert(final_.has_value(),
                  "serving kernel drained without a terminal state");
        return *final_;
    }
};

} // anonymous namespace

std::string
FleetResult::report() const
{
    std::ostringstream os;
    os << "serving run: " << (halted ? "halted" : "completed")
       << "\n";
    os << "  makespan       " << formatSeconds(makespanSec) << "\n";
    os << "  offered        " << offered << "\n";
    os << "  admitted       " << admitted << "\n";
    os << "  shed           " << shed << "\n";
    os << "  completed      " << completed << "\n";
    os << "  goodput        " << goodput << "\n";
    os << "  retries        " << retries << "\n";
    os << "  hedges         " << hedges << "\n";
    os << "  failures       " << replicaFailures << "\n";
    os << "  failovers      " << failovers << "\n";
    os << "  autoscale ups  " << autoscaleUps << "\n";
    os << "  checkpoints    " << checkpointsSaved << "\n";
    os << "  reoffered      " << reoffered << "\n";
    os << "  breaker trips  " << breakerTrips << "\n";
    os << "  brownouts      " << brownoutEntries << "\n";
    os << "  brownout done  " << brownoutCompleted << "\n";
    os << "  brownout sec   " << formatSeconds(brownoutSec) << "\n";
    os << "  p50            " << formatSeconds(p50) << "\n";
    os << "  p99            " << formatSeconds(p99) << "\n";
    os << "  p999           " << formatSeconds(p999) << "\n";
    os << "events:\n" << eventLog;
    return os.str();
}

std::string
runFingerprint(const std::vector<Request> &arrivals,
               const std::vector<QosTier> &tiers,
               const BatchLatencyModel &model,
               const resilience::FaultSchedule &faults,
               const FleetOptions &options,
               const BatchLatencyModel *brownout_model)
{
    std::string s;
    s.reserve(512);
    s += "serving-run:";
    // Arrivals are pure data; fingerprint them exactly (FNV-1a over
    // the packed stream keeps the id short).
    std::uint64_t h = kFnv1aBasis;
    for (const Request &r : arrivals) {
        h = fnv1aU64(h, r.id);
        h = fnv1aU64(h, doubleBits(r.arrivalSec));
        h = fnv1aU64(h, r.tier);
    }
    putU64(s, arrivals.size());
    putU64(s, h);
    s += fingerprint(tiers);
    s += model.fingerprint();
    s += faults.fingerprint();
    s += "fleet:";
    putU64(s, options.replicas);
    putU64(s, options.warmSpares);
    putBits(s, options.failoverSec);
    putU64(s, options.admission.enabled ? 1 : 0);
    putU64(s, options.admission.queueCapacity);
    putBits(s, options.admission.slackFactor);
    putU64(s, options.hedge.enabled ? 1 : 0);
    putBits(s, options.hedge.afterSec);
    putU64(s, options.autoscale.enabled ? 1 : 0);
    putBits(s, options.autoscale.checkIntervalSec);
    putU64(s, options.autoscale.queueDepthPerReplica);
    putBits(s, options.autoscale.spinUpSec);
    putU64(s, options.autoscale.maxExtraReplicas);
    putU64(s, options.retry.maxRetries);
    putBits(s, options.retry.timeoutSec);
    putBits(s, options.retry.backoffBaseSec);
    putBits(s, options.retry.backoffMultiplier);
    putBits(s, options.retry.backoffCapSec);
    putBits(s, options.retry.giveUpAfterSeconds);
    putBits(s, options.retry.jitterFraction);
    putU64(s, options.retry.jitterSeed);
    putU64(s, options.health.enabled ? 1 : 0);
    putBits(s, options.health.faultScore);
    putBits(s, options.health.successDecay);
    putBits(s, options.health.breakerThreshold);
    putBits(s, options.health.cooloffSec);
    putU64(s, options.brownout.enabled ? 1 : 0);
    putU64(s, options.brownout.enterQueueDepthPerReplica);
    putU64(s, options.brownout.exitQueueDepthPerReplica);
    putBits(s, options.brownout.minResidencySec);
    putU64(s, options.reoffer.enabled ? 1 : 0);
    putBits(s, options.reoffer.delaySec);
    putU64(s, options.reoffer.maxReoffers);
    if (options.brownout.enabled && brownout_model) {
        s += "brownout:";
        s += brownout_model->fingerprint();
    }
    putBits(s, options.checkpointIntervalSec);
    return s;
}

FleetResult
runFleet(const std::vector<Request> &arrivals,
         const std::vector<QosTier> &tiers,
         const BatchLatencyModel &model, const FaultSchedule &faults,
         const FleetOptions &options,
         const BatchLatencyModel *brownout_model)
{
    FleetEngine engine{arrivals, tiers,   model,
                       faults,   options, brownout_model};
    return engine.run();
}

} // namespace serving
} // namespace ascend
