/**
 * @file
 * The fleet serving state machine.
 *
 * Discipline mirrors cluster/elastic_run: the engine is a pure
 * function of (immutable inputs, ServingState + the journal's event
 * log); every mutation lives there, every cost is serial double
 * arithmetic, and nothing reads the wall clock or thread count —
 * which is what makes kill-and-resume byte-identical and lets
 * bench_serving --chaos enforce it with real SIGKILLs.
 *
 * One loop iteration is one decision instant t. It runs, in order:
 * the cadenced on-disk checkpoint, the faults due by t (ONE at a
 * time, with the journal's halt re-checked after each), then the
 * step. The step processes — in a fixed order — completions, replica
 * spin-ups, due arrivals (admission control), hedge checks, the
 * autoscaler, and dispatch over idle replicas in index order; the
 * loop then moves s.simTimeSec to the earliest future decision
 * instant. The clock moves *before* the next checkpoint, so the state
 * a save captures says "instant t not yet run": a resumed run
 * re-enters at t and replays its faults and step exactly as the
 * uninterrupted run did.
 *
 * Each decision lives in one place: the request queue's first-fate
 * ledger decides whether a hedged instance lost, and active() picks
 * the curve of a new dispatch and of admission. A defense whose
 * state stays neutral while it is off (no health score, no open
 * breaker, no brownout, no autoscale budget) is not re-tested where
 * that state is read.
 */

#include "serving/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/field.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"
#include "resilience/run_journal.hh"
#include "runtime/perf_stats.hh"
#include "serving/request_queue.hh"

namespace ascend {
namespace serving {

using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultSchedule;
using resilience::formatSeconds;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The serving checkpoint: <checkpointDir>/serving.ckpt, ASCBLOB v2. */
const resilience::JournalFormat kJournalFormat = {
    "serving", {'A', 'S', 'C', 'B', 'L', 'O', 'B', '\n'}, 2};

enum ReplicaStatus : std::uint32_t {
    kIdle = 0,
    kBusy = 1,
    kSpinningUp = 2,
    kDead = 3,
};

const char *
toString(ReplicaStatus status)
{
    switch (status) {
      case kIdle:       return "idle";
      case kBusy:       return "busy";
      case kSpinningUp: return "spinning-up";
      case kDead:       return "dead";
    }
    return "?";
}

/** One replica slot (failover reuses the slot, autoscale appends). */
struct ReplicaState
{
    ReplicaStatus status = kIdle;
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

/**
 * ReplicaState's fields, in ASCBLOB body order: the two flags share
 * one word, hedgeIssued in bit 0 and degraded in bit 1.
 */
template <typename F, RecordOf<ReplicaState>... R>
void
forEachField(F &&f, R &...r)
{
    f("status", r.status...);
    f("ready_at_sec", r.readyAtSec...);
    f("busy_until_sec", r.busyUntilSec...);
    f("dispatched_sec", r.dispatchedSec...);
    f("straggler_factor", r.stragglerFactor...);
    f("straggler_until_sec", r.stragglerUntilSec...);
    f("flags", bitWord<1, 1>(r.hedgeIssued, r.degraded)...);
    f("health_score", r.healthScore...);
    f("breaker_until_sec", r.breakerUntilSec...);
    f("batch", r.batch...);
}

/** The engine state's scalars, its counters included. */
struct ServingHead : FleetCounters
{
    std::uint64_t sequence = 0; ///< checkpoint ordinal
    double simTimeSec = 0;      ///< decision instant (not yet run)
    std::uint64_t arrivalCursor = 0;
    std::uint64_t faultCursor = 0;
    std::uint64_t sparesLeft = 0;
    std::uint64_t scaleUpsLeft = 0;
    double nextAutoscaleSec = 0;
    double lastCheckpointSec = -1;
    std::uint64_t nextReofferId = 0; ///< fresh ids for re-offers
    bool brownoutActive = false;
    double brownoutSinceSec = 0; ///< entry instant while active
    double brownoutSec = 0;      ///< accumulated over closed windows
};

/** ServingHead's fields, in ASCBLOB body order. */
template <typename F, RecordOf<ServingHead>... H>
void
forEachField(F &&f, H &...h)
{
    f("sequence", h.sequence...);
    f(nonNegative("sim_time_sec"), h.simTimeSec...);
    f("arrival_cursor", h.arrivalCursor...);
    f("fault_cursor", h.faultCursor...);
    f("spares_left", h.sparesLeft...);
    f("scale_ups_left", h.scaleUpsLeft...);
    f("next_autoscale_sec", h.nextAutoscaleSec...);
    f("last_checkpoint_sec", h.lastCheckpointSec...);
    f("counters", static_cast<std::conditional_t<std::is_const_v<H>,
                                                 const FleetCounters,
                                                 FleetCounters> &>(h)...);
    f("next_reoffer_id", h.nextReofferId...);
    f("brownout_active", h.brownoutActive...);
    f("brownout_since_sec", h.brownoutSinceSec...);
    f("brownout_sec", h.brownoutSec...);
}

/**
 * Complete engine state at one instant's head, less the event log.
 * The ASCBLOB v2 body is the head, the queue's entries() and
 * reoffers(), the replicas, the queue's answeredIds(), then the
 * latency vectors; the journal appends the log.
 */
struct ServingState : ServingHead
{
    RequestQueue queue; ///< requests, re-offers, hedge ledger
    std::vector<ReplicaState> replicas;
    std::vector<double> latencies; ///< every completed request
    std::vector<double> completionsSec;    ///< aligned with latencies
    std::vector<std::uint8_t> completedOnTime; ///< aligned, 0/1
};

/**
 * Nearest-rank percentile: the value of rank max(ceil(q n), 1) among
 * the n values of @p v, 0 when empty. Selects with nth_element, O(n),
 * so it reorders @p v.
 */
double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    const double rank = q * double(v.size());
    std::size_t idx = std::size_t(std::ceil(rank));
    idx = std::min(idx > 0 ? idx - 1 : 0, v.size() - 1);
    const auto nth = v.begin() + std::ptrdiff_t(idx);
    std::nth_element(v.begin(), nth, v.end());
    return *nth;
}

/** A latency curve a dispatch rides, with its admission terms. */
struct Curve
{
    explicit Curve(const BatchLatencyModel &m)
        : model(m), maxBatch(m.maxBatch()),
          fullBatchSec(m.latencySeconds(maxBatch))
    {
    }

    const BatchLatencyModel &model;
    unsigned maxBatch;
    /**
     * Admission's service time: under overload a request rides a
     * near-full batch (latency(1) would admit requests that then
     * complete past their deadline).
     */
    double fullBatchSec;
};

/** The engine: immutable inputs + checkpointable state. */
struct FleetEngine
{
    FleetEngine(const std::vector<Request> &arrivals_,
                const std::vector<QosTier> &tiers_,
                const BatchLatencyModel &model_,
                const FaultSchedule &faults_,
                const FleetOptions &options_,
                const BatchLatencyModel *brownout_model_)
        : arrivals(arrivals_), tiers(tiers_), faults(faults_),
          options(options_),
          brownoutModel(options_.brownout.enabled ? brownout_model_
                                                  : nullptr),
          base(model_), ladder(brownoutModel ? *brownoutModel : model_)
    {
    }

    const std::vector<Request> &arrivals;
    const std::vector<QosTier> &tiers;
    const FaultSchedule &faults;
    const FleetOptions &options;
    const BatchLatencyModel *brownoutModel; ///< null = no ladder
    const Curve base;   ///< the model every dispatch rides by default
    const Curve ladder; ///< the brownout curve (base without a ladder)

    std::vector<FaultEvent> faultEvents; ///< core-kind, time-sorted

    ServingState s;
    resilience::RunJournal journal{options, kJournalFormat};

    void
    setUp()
    {
        checkFields(options, "fleet");
        if (tiers.empty())
            throwError(ErrorCode::ConfigValidation,
                       "a fleet needs at least one tier");
        for (const Request &r : arrivals)
            if (r.tier >= tiers.size())
                throwError(ErrorCode::ConfigValidation,
                           "request tier %u of %zu", r.tier, tiers.size());
        for (const FaultEvent &e : faults.events())
            if (e.kind == FaultKind::CorePermanent ||
                e.kind == FaultKind::CoreTransient ||
                e.kind == FaultKind::CoreStraggler)
                faultEvents.push_back(e);

        s.replicas.resize(options.replicas);
        s.sparesLeft = options.warmSpares;
        s.scaleUpsLeft =
            options.autoscale.enabled
                ? options.autoscale.maxExtraReplicas : 0;
        s.nextAutoscaleSec = options.autoscale.checkIntervalSec;

        if (journal.persistent()) {
            ServingState loaded;
            if (journal.load(runFingerprint(arrivals, tiers, base.model,
                                            faults, options,
                                            brownoutModel),
                             [&](ByteReader &r) {
                                 return decode(r, loaded);
                             }) == FrameStatus::Ok)
                s = std::move(loaded);
        }
    }

    /**
     * Decode a saved body into @p st and check it is a state this run
     * could have saved (the identity matched): no tier or cursor past
     * the inputs (decodeBody refuses a status or clock outside its
     * field's domain).
     */
    bool
    decode(ByteReader &r, ServingState &st) const
    {
        const auto tiered = [this](const std::vector<PendingRequest> &v) {
            return std::ranges::all_of(
                v, [this](std::uint32_t t) { return t < tiers.size(); },
                &PendingRequest::tier);
        };
        std::vector<PendingRequest> queue, reoffers;
        std::vector<std::uint64_t> answered;
        if (!decodeBody(r, static_cast<ServingHead &>(st), queue,
                        reoffers, st.replicas, answered, st.latencies,
                        st.completionsSec, st.completedOnTime) ||
            st.arrivalCursor > arrivals.size() ||
            st.faultCursor > faultEvents.size() || !tiered(queue) ||
            !tiered(reoffers))
            return false;
        for (const ReplicaState &rep : st.replicas)
            if (!tiered(rep.batch))
                return false;
        st.queue.restore(queue, reoffers, answered, st.simTimeSec);
        return true;
    }

    std::string
    eventPrefix() const
    {
        return journal.prefix(s.simTimeSec);
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

    /**
     * The curve of every *new* dispatch and of the admission
     * estimate: the brownout ladder switches both to the cheaper
     * model.
     */
    const Curve &
    active() const
    {
        return s.brownoutActive ? ladder : base;
    }

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
            journal.append(eventPrefix() + "breaker open replica " +
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
        r.id = kReofferIdBase + s.nextReofferId++;
        r.tier = req.tier;
        r.eligibleSec = t + delay;
        r.reoffers = std::uint8_t(req.reoffers + 1);
        ++s.reoffered;
        s.queue.pushReoffer(r);
    }

    /**
     * Shed accounting for one queue instance (+ the re-offer hook).
     * First fate wins: a shed hedged original answers its hedge, so a
     * live copy can neither complete nor count again.
     */
    void
    shedInstance(const PendingRequest &req, double t)
    {
        if (req.copy)
            return; // the original carries the book-keeping
        if (req.hedged && !s.queue.answer(req))
            return; // a twin already answered
        ++s.shed;
        maybeReoffer(req, t);
    }

    /** Take the cadenced on-disk checkpoint (head of an instant). */
    void
    maybeCheckpoint()
    {
        if (journal.halted() || !journal.persistent())
            return;
        if (s.lastCheckpointSec >= 0 &&
            s.simTimeSec - s.lastCheckpointSec <
                options.checkpointIntervalSec)
            return;
        ++s.sequence;
        ++s.checkpointsSaved;
        s.lastCheckpointSec = s.simTimeSec;
        journal.append(eventPrefix() + "checkpoint seq " +
                       std::to_string(static_cast<unsigned long long>(
                           s.sequence)));
        journal.save(encodeBody(static_cast<const ServingHead &>(s),
                                s.queue.entries(), s.queue.reoffers(),
                                s.replicas, s.queue.answeredIds(),
                                s.latencies, s.completionsSec,
                                s.completedOnTime));
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
        if (req.hedged && s.queue.answered(req.id))
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
        s.queue.push(r, t);
    }

    /** Replica @p r went down at @p t: its in-flight batch is lost. */
    void
    loseBatch(ReplicaState &r, double t)
    {
        ++s.replicaFailures;
        for (const PendingRequest &req : r.batch)
            requeueLost(req, t);
        r.batch.clear();
        r.hedgeIssued = 0;
    }

    /** Apply the single next due fault. */
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
            loseBatch(r, t);
            if (s.sparesLeft > 0) {
                --s.sparesLeft;
                ++s.failovers;
                r.status = kSpinningUp;
                r.readyAtSec = t + options.failoverSec;
                r.stragglerFactor = 1.0;
                r.stragglerUntilSec = 0;
                r.healthScore = 0; // the spare is a fresh machine
                r.breakerUntilSec = 0;
                journal.append(eventPrefix() + "failover replica " +
                               std::to_string(e.target) + " ready " +
                               formatSeconds(r.readyAtSec));
            } else {
                r.status = kDead;
                journal.append(eventPrefix() + "replica " +
                               std::to_string(e.target) + " dead");
            }
            break;
          }
          case FaultKind::CoreTransient: {
            loseBatch(r, t);
            r.status = kSpinningUp;
            r.readyAtSec = t + e.durationSec;
            journal.append(eventPrefix() + "replica " +
                           std::to_string(e.target) + " outage until " +
                           formatSeconds(r.readyAtSec));
            bumpHealth(e.target, t);
            break;
          }
          case FaultKind::CoreStraggler: {
            r.stragglerFactor = e.severity;
            r.stragglerUntilSec =
                e.durationSec > 0 ? t + e.durationSec : kInf;
            journal.append(eventPrefix() + "replica " +
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
        if (req.hedged && !s.queue.answer(req))
            return; // the losing copy
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
     * One offer at the front door — a fresh arrival or a closed-loop
     * re-offer. Each call counts offered exactly once and ends
     * admitted or shed, so conservation holds per instance. Admission
     * control sheds when the queue is full, or when a sheddable
     * request's estimated completion (queue-drain at full-batch
     * service rate plus one service time) cannot meet its deadline.
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
                const Curve &curve = active();
                const double rate =
                    alive ? double(alive) * double(curve.maxBatch) /
                                curve.fullBatchSec
                          : 0;
                const double wait =
                    rate > 0 ? double(s.queue.size()) / rate : kInf;
                if (wait + curve.fullBatchSec >
                    tier.deadlineSec * options.admission.slackFactor) {
                    shedInstance(r, t);
                    return;
                }
            }
        }
        ++s.admitted;
        s.queue.push(r, t);
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
            if (s.queue.answered(req.id))
                continue;
            req.hedged = 1;
            PendingRequest dup = req;
            dup.copy = 1;
            dup.eligibleSec = t;
            s.queue.push(dup, t);
            ++copies;
            ++s.hedges;
        }
        if (copies)
            journal.append(eventPrefix() + "hedge replica " +
                           std::to_string(idx) + " copies " +
                           std::to_string(copies));
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
        const Curve &curve = active();
        std::vector<PendingRequest> batch =
            s.queue.takeBatch(t, curve.maxBatch, tiers);
        if (batch.empty())
            return;

        ReplicaState &r = s.replicas[idx];
        const double factor =
            t < r.stragglerUntilSec ? r.stragglerFactor : 1.0;
        r.status = kBusy;
        r.dispatchedSec = t;
        r.busyUntilSec =
            t + curve.model.latencySeconds(unsigned(batch.size())) *
                    factor;
        r.hedgeIssued = 0;
        r.degraded = s.brownoutActive;
        r.batch = std::move(batch);
        if (obs::Tracer *tracer = obs::Tracer::current())
            tracer->span(obs::Domain::Serving, idx + 2,
                         "serving.batch", obs::traceNs(t),
                         obs::traceNs(r.busyUntilSec) - obs::traceNs(t),
                         r.batch.size());
    }

    /** Earliest future decision instant (kInf = nothing left). */
    double
    nextInstant(double t)
    {
        double next = s.queue.nextWake(t);
        if (s.arrivalCursor < arrivals.size())
            next = std::min(next,
                            arrivals[s.arrivalCursor].arrivalSec);
        if (s.faultCursor < faultEvents.size())
            next = std::min(next,
                            faultEvents[s.faultCursor].timeSec);
        const bool queued = !s.queue.empty();
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
            } else if (r.status == kIdle && queued &&
                       r.breakerUntilSec > t) {
                // An open breaker is a decision instant: the replica
                // is idle but skipped, and nothing else may wake the
                // step before the half-open probe becomes legal.
                next = std::min(next, r.breakerUntilSec);
            }
        }
        if (s.brownoutActive) {
            const double residency =
                s.brownoutSinceSec + options.brownout.minResidencySec;
            if (residency > t)
                next = std::min(next, residency);
        }
        if (queued && s.scaleUpsLeft > 0)
            next = std::min(next, std::max(s.nextAutoscaleSec, t));
        return next;
    }

    /**
     * The step of the decision instant s.simTimeSec, after its
     * faults. @return true when the fleet is doomed: every queued and
     * future request was shed and the run is over.
     */
    bool
    stepOnce()
    {
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
            r.healthScore *= options.health.successDecay;
        }
        for (ReplicaState &r : s.replicas)
            if (r.status == kSpinningUp && r.readyAtSec <= t)
                r.status = kIdle;
        while (s.arrivalCursor < arrivals.size() &&
               arrivals[s.arrivalCursor].arrivalSec <= t) {
            const Request &a = arrivals[s.arrivalCursor++];
            offerPending({.id = a.id, .tier = a.tier,
                          .arrivalSec = a.arrivalSec},
                         a.arrivalSec);
        }
        // Closed-loop clients whose think time has elapsed re-offer
        // their shed request as a brand-new arrival.
        for (PendingRequest &req : s.queue.takeDueReoffers(t)) {
            req.arrivalSec = t;
            offerPending(req, t);
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
                journal.append(eventPrefix() + "autoscale to " +
                               std::to_string(s.replicas.size()) +
                               " replicas ready " +
                               formatSeconds(fresh.readyAtSec));
            }
            s.nextAutoscaleSec =
                t + options.autoscale.checkIntervalSec;
        }

        if (aliveReplicas() == 0 && s.sparesLeft == 0 &&
            s.scaleUpsLeft == 0) {
            // Nothing can serve again: account every queued and
            // future request as shed and drain. Pending re-offers
            // were never offered; dropping them keeps completed +
            // shed == offered intact.
            const std::uint64_t lost = std::ranges::count(
                s.queue.entries(), 0, &PendingRequest::copy);
            s.shed += lost;
            s.queue.clear();
            const std::uint64_t remaining =
                arrivals.size() - s.arrivalCursor;
            s.offered += remaining;
            s.shed += remaining;
            s.arrivalCursor = arrivals.size();
            journal.append(
                eventPrefix() + "fleet dead, dropped " +
                std::to_string(
                    static_cast<unsigned long long>(lost + remaining)));
            return true;
        }

        // Drop the queued entries that can no longer matter: losing
        // hedge instances, and, when shedding is on, requests already
        // past their deadline (the expired-at-dispatch drop).
        for (const PendingRequest &req :
             s.queue.purge(t, options.admission.enabled))
            shedInstance(req, t);
        if (brownoutModel) {
            const std::size_t alive =
                std::max<std::size_t>(aliveReplicas(), 1);
            if (!s.brownoutActive &&
                s.queue.size() >
                    options.brownout.enterQueueDepthPerReplica *
                        alive) {
                s.brownoutActive = true;
                s.brownoutSinceSec = t;
                ++s.brownoutEntries;
                journal.append(eventPrefix() +
                               "brownout enter depth " +
                               std::to_string(s.queue.size()));
            } else if (s.brownoutActive &&
                       s.queue.size() <=
                           options.brownout.exitQueueDepthPerReplica *
                               alive &&
                       t - s.brownoutSinceSec >=
                           options.brownout.minResidencySec) {
                s.brownoutActive = false;
                s.brownoutSec += t - s.brownoutSinceSec;
                journal.append(eventPrefix() + "brownout exit depth " +
                               std::to_string(s.queue.size()));
            }
        }
        for (unsigned i = 0; i < unsigned(s.replicas.size()); ++i) {
            if (s.replicas[i].status != kIdle || s.queue.empty())
                continue;
            if (t < s.replicas[i].breakerUntilSec)
                continue; // breaker open: skip until half-open probe
            dispatchReplica(i, t);
        }
        if (obs::Tracer *tracer = obs::Tracer::current())
            tracer->counter(obs::Domain::Serving, "serving.queue",
                            obs::traceNs(t), double(s.queue.size()));

        return false;
    }

    /**
     * Counters and nearest-rank latency percentiles (three O(n)
     * selections on one copy), without the per-request vectors.
     */
    FleetResult
    summary() const
    {
        FleetResult r;
        static_cast<FleetCounters &>(r) = s;
        r.brownoutSec = s.brownoutSec;
        if (s.brownoutActive)
            r.brownoutSec += s.simTimeSec - s.brownoutSinceSec;
        r.halted = journal.halted();
        r.makespanSec = s.simTimeSec;
        std::vector<double> latencies = s.latencies;
        r.p50 = percentile(latencies, 0.50);
        r.p99 = percentile(latencies, 0.99);
        r.p999 = percentile(latencies, 0.999);
        return r;
    }

    /** Halt snapshot: copies, so the state stays whole. */
    FleetResult
    result() const
    {
        FleetResult r = summary();
        r.latencies = s.latencies;
        r.completionsSec = s.completionsSec;
        r.completedOnTime = s.completedOnTime;
        r.eventLog = journal.log();
        return r;
    }

    /**
     * Natural completion: charge totals, drop the checkpoint file.
     * The state is dead after this, so its vectors move out.
     */
    FleetResult
    finish()
    {
        FleetResult r = summary();
        r.latencies = std::move(s.latencies);
        r.completionsSec = std::move(s.completionsSec);
        r.completedOnTime = std::move(s.completedOnTime);
        r.eventLog = journal.takeLog();
        if (journal.persistent())
            journal.remove();
        // Sim-time counters: deterministic at any thread count.
        static runtime::Counter &runs = runtime::counter(
            "serving runs", runtime::CounterKind::Sum,
            runtime::Determinism::Deterministic);
        runs.charge(1);
        runtime::chargeFields("serving",
                              static_cast<const FleetCounters &>(r));
        if (obs::Tracer *tracer = obs::Tracer::current())
            tracer->span(obs::Domain::Serving, 1, "serving.run", 0,
                         obs::traceNs(r.makespanSec), r.completed);
        return r;
    }

    /**
     * The engine loop; see the file comment for the order of one
     * instant. perf/driver.cc reads the "des-kernel" scope for its
     * des.kernel_s metric, so the loop keeps that name.
     */
    FleetResult
    run()
    {
        setUp();
        static runtime::PerfScope &perf =
            runtime::perfScope("des-kernel");
        const runtime::PerfTimer timer(perf);
        for (;;) {
            maybeCheckpoint();
            while (!journal.halted() &&
                   s.faultCursor < faultEvents.size() &&
                   faultEvents[s.faultCursor].timeSec <= s.simTimeSec)
                applyOneFault(s.simTimeSec);
            if (journal.halted())
                return result();
            const double t = s.simTimeSec;
            const bool doomed = stepOnce();
            if (journal.halted())
                return result();
            if (doomed)
                return finish();
            const double next = nextInstant(t);
            if (next == kInf)
                return finish();
            simAssert(next > t,
                      "serving loop must advance the sim clock");
            s.simTimeSec = next;
        }
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
    putField(s, options);
    if (options.brownout.enabled && brownout_model) {
        s += "brownout:";
        s += brownout_model->fingerprint();
    }
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
