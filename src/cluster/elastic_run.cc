/**
 * @file
 * The elastic cluster-run state machine — a des::Kernel client.
 *
 * The engine is deliberately a pure function of (immutable inputs,
 * RunCheckpoint state): every mutation lives in the RunCheckpoint,
 * every cost is serial double arithmetic, and nothing reads the
 * wall clock or thread count — which is what makes kill-and-resume
 * byte-identical and lets bench_chaos enforce it with real SIGKILLs.
 *
 * Each training step is a short chain of kernel events at the same
 * sim time, tie-broken by priority: a quiescent marker (0) whose hook
 * takes the cadenced checkpoint, a node-failure poll (1), an ECC
 * rollback poll (2), and the step itself (3). The poll events apply
 * ONE due fault per dispatch and re-arm themselves: recovery costs
 * advance the sim clock mid-batch, which can make further faults due,
 * and one-at-a-time dispatch reproduces that cascade exactly. Faults
 * are deliberately NOT scheduled at their strike times — the engine
 * batches "every node failure due by now, then every rollback due by
 * now" at each step boundary, and the event chain preserves that
 * order. The kernel clock shadows s.simTimeSec via advanceTo().
 *
 * Checkpoints ride the kernel's quiescent points: the onQuiescent
 * hook fires only between event dispatches, when no handler is
 * mid-flight and the RunCheckpoint is self-consistent — the saved
 * state is a fixed point of the chain, so a SIGKILL after any save
 * resumes into a byte-identical continuation (bench_chaos enforces
 * this with real kills at event boundaries).
 */

#include "cluster/elastic_run.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "common/codec.hh"
#include "common/logging.hh"
#include "des/kernel.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"

namespace ascend {
namespace cluster {

using resilience::CheckpointStore;
using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultSchedule;
using resilience::RunCheckpoint;

namespace {

/** Sentinel for a shrunk (unreplaced) slot in activeNodes. */
constexpr std::uint32_t kDeadSlot = 0xffffffffu;

/** Recovery-phase span on the Cluster domain's elastic track (2). */
void
traceRecovery(const char *name, double t0_sec, double t1_sec,
              Bytes bytes)
{
    if (obs::Tracer *tracer = obs::Tracer::current()) {
        const std::uint64_t t0 =
            std::uint64_t(std::llround(t0_sec * 1e9));
        const std::uint64_t t1 =
            std::uint64_t(std::llround(t1_sec * 1e9));
        tracer->span(obs::Domain::Cluster, 2, name, t0,
                     t1 > t0 ? t1 - t0 : 0, bytes);
    }
}

std::string
formatSeconds(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9e", v);
    return buf;
}

} // anonymous namespace

std::string
fingerprint(const ElasticOptions &options)
{
    std::string s;
    s.reserve(192);
    s += "elopt:";
    putU64(s, options.spareNodes);
    putU64(s, options.stateBytes);
    putBits(s, options.failoverRestartSec);
    putBits(s, options.reshardRestartSec);
    putU64(s, options.speculation ? 1 : 0);
    putU64(s, options.checkpoint.enabled ? 1 : 0);
    putBits(s, options.checkpoint.intervalSec);
    putBits(s, options.checkpoint.saveSec);
    putBits(s, options.checkpoint.restartSec);
    putU64(s, options.checkpointEverySteps);
    return s;
}

std::string
runFingerprint(const TrainingJob &job, const ClusterConfig &cluster,
               unsigned chips, unsigned num_steps,
               const FaultSchedule &faults,
               const resilience::RetryPolicy &retry,
               resilience::DegradedMode mode,
               const ElasticOptions &options)
{
    std::string s;
    s.reserve(768);
    s += "elastic-run:";
    putU64(s, chips);
    putU64(s, num_steps);
    putBits(s, job.stepSecondsPerChip);
    putU64(s, job.gradientBytes);
    putU64(s, job.samplesPerChipStep);
    putBits(s, job.overlapFraction);
    putU64(s, retry.maxRetries);
    putBits(s, retry.timeoutSec);
    putBits(s, retry.backoffBaseSec);
    putBits(s, retry.backoffMultiplier);
    putBits(s, retry.backoffCapSec);
    putBits(s, retry.giveUpAfterSeconds);
    putBits(s, retry.degradedBandwidthFactor);
    putU64(s, std::uint64_t(mode));
    s += fingerprint(options);
    // The schedule's own fingerprint, not fingerprint(spec()):
    // correlated schedules (resilience::generateCorrelated) carry an
    // identity their nominal spec alone cannot reproduce.
    s += faults.fingerprint();
    s += clusterConfigToString(cluster);
    return s;
}

std::string
ElasticRunResult::report() const
{
    std::ostringstream os;
    os << "elastic run: "
       << (completed ? "completed" : halted ? "halted" : "failed")
       << "\n";
    os << "  seconds        " << formatSeconds(seconds) << "\n";
    os << "  steps done     " << stepsDone << "\n";
    os << "  final nodes    " << finalNodes << "\n";
    os << "  final chips    " << finalChips << "\n";
    os << "  failovers      " << counters.failovers << "\n";
    os << "  shrinks        " << counters.shrinks << "\n";
    os << "  rollbacks      " << counters.rollbacks << "\n";
    os << "  replayed steps " << counters.replayedSteps << "\n";
    os << "  speculations   " << counters.speculations << "\n";
    os << "  retries        " << counters.retries << "\n";
    os << "  degraded steps " << counters.degradedSteps << "\n";
    os << "  spares used    " << counters.sparesUsed << "\n";
    os << "  checkpoints    " << counters.checkpointsSaved << "\n";
    os << "events:\n" << eventLog;
    return os.str();
}

namespace {

/**
 * All state and handlers of one elastic run, driven as a des::Kernel
 * event chain (see the file comment for the chain layout). Mutations
 * touch only `s` (the checkpointable state) plus the this-process
 * halt counter; terminal handlers record the run's outcome in
 * `final_` instead of re-arming the chain.
 */
struct Engine
{
    const TrainingJob &job;
    const ClusterConfig &cluster;
    unsigned chips;
    unsigned num_steps;
    const FaultSchedule &faults;
    const resilience::RetryPolicy &retry;
    resilience::DegradedMode mode;
    const ElasticOptions &options;

    unsigned perServer = 0;
    unsigned initialNodes = 0;
    unsigned spareBase = 0;
    std::vector<FaultEvent> nodeFail;
    std::vector<FaultEvent> ecc;
    std::unique_ptr<CheckpointStore> store;

    RunCheckpoint s;
    std::uint64_t eventIndex = 0; ///< lines in s.eventLog
    unsigned eventsSeen = 0;      ///< this process only (halt hook)
    bool haltRequested = false;
    std::optional<ElasticRunResult> final_; ///< terminal outcome

    void
    setUp()
    {
        simAssert(chips > 0, "elastic run needs at least one chip");
        perServer = cluster.server.chips;
        initialNodes = unsigned(ceilDiv(chips, perServer));
        for (const FaultEvent &e : faults.events()) {
            if (e.kind == FaultKind::CorePermanent)
                nodeFail.push_back(e);
            else if (e.kind == FaultKind::EccUncorrectable)
                ecc.push_back(e);
        }
        // Spares are physical machines outside the schedule's target
        // set: they can neither fail nor straggle.
        spareBase = std::max(initialNodes, faults.spec().cores);

        s.runId = runFingerprint(job, cluster, chips, num_steps,
                                 faults, retry, mode, options);
        s.activeNodes.resize(initialNodes);
        for (unsigned i = 0; i < initialNodes; ++i)
            s.activeNodes[i] = i;
        s.sparesLeft = options.spareNodes;

        if (!options.checkpointDir.empty()) {
            store = std::make_unique<CheckpointStore>(
                options.checkpointDir);
            RunCheckpoint loaded;
            if (store->load(loaded, s.runId))
                s = std::move(loaded);
        }
        for (char c : s.eventLog)
            if (c == '\n')
                ++eventIndex;
    }

    /** Chips the slot originally contributed (last slot is partial). */
    unsigned
    slotChips(unsigned slot) const
    {
        const std::uint64_t base = std::uint64_t(slot) * perServer;
        return unsigned(std::min<std::uint64_t>(perServer,
                                                chips - base));
    }

    unsigned
    aliveNodes() const
    {
        unsigned n = 0;
        for (std::uint32_t phys : s.activeNodes)
            if (phys != kDeadSlot)
                ++n;
        return n;
    }

    unsigned
    aliveChips() const
    {
        unsigned n = 0;
        for (unsigned i = 0; i < unsigned(s.activeNodes.size()); ++i)
            if (s.activeNodes[i] != kDeadSlot)
                n += slotChips(i);
        return n;
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

    /** True while another node failure is due at the current time. */
    bool
    nodeFailureDue() const
    {
        return s.nodeEventCursor < nodeFail.size() &&
               nodeFail[s.nodeEventCursor].timeSec <= s.simTimeSec;
    }

    /**
     * Apply every node-permanent failure due at the next due instant
     * (one poll dispatch's worth). Independent schedules place one
     * event per instant and behave exactly as before. A correlated
     * domain event (a rack or power strike from fault_domain.hh)
     * lands several deaths at one shared instant; their recoveries
     * proceed in parallel — each spare receives its shard over its
     * own uplink — so the step pays the slowest single recovery, not
     * the serialized sum. @return true when the whole world died.
     */
    bool
    applyOneNodeFailure()
    {
        const double due = nodeFail[s.nodeEventCursor].timeSec;
        const double t0 = s.simTimeSec;
        double cost = 0;
        struct PendingTrace
        {
            const char *name;
            double endSec;
            std::uint64_t bytes;
        };
        std::vector<PendingTrace> traces;
        while (s.nodeEventCursor < nodeFail.size() &&
               nodeFail[s.nodeEventCursor].timeSec == due) {
            const FaultEvent e = nodeFail[s.nodeEventCursor++];
            unsigned slot = kDeadSlot;
            for (unsigned i = 0;
                 i < unsigned(s.activeNodes.size()); ++i)
                if (s.activeNodes[i] == e.target) {
                    slot = i;
                    break;
                }
            if (slot == kDeadSlot)
                continue; // machine already dead or replaced
            if (s.sparesLeft > 0) {
                const unsigned spare =
                    spareBase +
                    unsigned(options.spareNodes - s.sparesLeft);
                --s.sparesLeft;
                s.activeNodes[slot] = spare;
                // Ship the shard's state to the warm spare over its
                // fat-tree uplink, then re-setup.
                double one = options.failoverRestartSec;
                if (options.stateBytes)
                    one += double(options.stateBytes) /
                               cluster.netBytesPerSec +
                           cluster.netLatencySec;
                ++s.counters.failovers;
                ++s.counters.sparesUsed;
                appendEvent(eventPrefix() + "failover slot " +
                            std::to_string(slot) + " phys " +
                            std::to_string(e.target) + " -> spare " +
                            std::to_string(spare) + " cost " +
                            formatSeconds(one));
                traces.push_back({"elastic.failover", t0 + one,
                                  options.stateBytes});
                cost = std::max(cost, one);
            } else {
                s.activeNodes[slot] = kDeadSlot;
                ++s.counters.shrinks;
                ++s.counters.spareExhausted;
                const unsigned survivors = aliveNodes();
                if (survivors == 0) {
                    appendEvent(eventPrefix() +
                                "world died at slot " +
                                std::to_string(slot));
                    return true;
                }
                // Survivors exchange the dead shard: one allreduce
                // of the state over the remaining uplinks, then
                // re-setup with the re-derived (smaller) collective
                // schedule.
                const double one =
                    options.reshardRestartSec +
                    ringAllreduceSeconds(options.stateBytes,
                                         survivors,
                                         cluster.netBytesPerSec,
                                         cluster.netLatencySec);
                appendEvent(eventPrefix() + "shrink slot " +
                            std::to_string(slot) + " phys " +
                            std::to_string(e.target) + " -> " +
                            std::to_string(survivors) +
                            " nodes cost " + formatSeconds(one));
                traces.push_back({"elastic.reshard", t0 + one,
                                  options.stateBytes});
                cost = std::max(cost, one);
            }
        }
        if (traces.empty())
            return false; // every target was already dead
        s.simTimeSec = t0 + cost;
        for (const PendingTrace &tr : traces)
            traceRecovery(tr.name, t0, tr.endSec, tr.bytes);
        return false;
    }

    /** True while another ECC rollback is due at the current time. */
    bool
    rollbackDue() const
    {
        return s.eccEventCursor < ecc.size() &&
               ecc[s.eccEventCursor].timeSec <= s.simTimeSec;
    }

    /** Roll back through the single next due uncorrectable error. */
    void
    applyOneRollback()
    {
        ++s.eccEventCursor;
        const double t0 = s.simTimeSec;
        const std::uint64_t lost = s.nextStep - s.lastCheckpointStep;
        const std::string line =
            eventPrefix() + "rollback to step " +
            std::to_string(static_cast<unsigned long long>(
                s.lastCheckpointStep)) +
            " replay " +
            std::to_string(static_cast<unsigned long long>(lost)) +
            " steps";
        s.nextStep = s.lastCheckpointStep;
        s.simTimeSec += options.checkpoint.restartSec;
        ++s.counters.rollbacks;
        s.counters.replayedSteps += lost;
        traceRecovery("elastic.rollback", t0, s.simTimeSec, 0);
        appendEvent(line);
    }

    /** Take a (logical + on-disk) checkpoint when the cadence is due. */
    void
    maybeCheckpoint()
    {
        if (haltRequested || !options.checkpoint.enabled)
            return;
        const bool interval_due =
            options.checkpoint.intervalSec > 0 &&
            s.simTimeSec - s.lastCheckpointSec >=
                options.checkpoint.intervalSec;
        const bool step_due =
            options.checkpointEverySteps > 0 &&
            s.nextStep - s.lastCheckpointStep >=
                options.checkpointEverySteps;
        if (!interval_due && !step_due)
            return;
        const double t0 = s.simTimeSec;
        const std::string line =
            eventPrefix() + "checkpoint at step " +
            std::to_string(
                static_cast<unsigned long long>(s.nextStep)) +
            " cost " + formatSeconds(options.checkpoint.saveSec);
        if (options.checkpoint.saveSec > 0)
            s.simTimeSec += options.checkpoint.saveSec;
        ++s.sequence;
        ++s.counters.checkpointsSaved;
        s.lastCheckpointStep = s.nextStep;
        s.lastCheckpointSec = s.simTimeSec;
        traceRecovery("elastic.checkpoint", t0, s.simTimeSec, 0);
        appendEvent(line);
        if (store)
            store->save(s);
    }

    /** Worst straggler slowdown among the surviving machines. */
    double
    stragglerFactor() const
    {
        double factor = 1.0;
        for (std::uint32_t phys : s.activeNodes)
            if (phys != kDeadSlot)
                factor =
                    std::max(factor, faults.stragglerFactor(phys));
        return factor;
    }

    ElasticRunResult
    result(bool completed) const
    {
        ElasticRunResult r;
        r.seconds = s.simTimeSec;
        r.stepsDone = unsigned(s.nextStep);
        r.completed = completed && !haltRequested;
        r.halted = haltRequested;
        r.finalNodes = aliveNodes();
        r.finalChips = aliveChips();
        r.retries = unsigned(s.counters.retries);
        r.degradedSteps = unsigned(s.counters.degradedSteps);
        r.counters = s.counters;
        r.eventLog = s.eventLog;
        return r;
    }

    /**
     * Arm one step's event chain at the current sim time. The
     * quiescent marker dispatches first (priority 0): the kernel's
     * quiescent hook checkpoints there, so the saved state is a
     * fixed point of the chain head. A resumed run re-enters here
     * with the cadence trivially not-due (the save itself reset it),
     * so it replays exactly the events the uninterrupted run
     * dispatched after the save — including failures and rollbacks
     * that became due during the saveSec window.
     */
    void
    armStep(des::Kernel &k)
    {
        k.scheduleQuiescent(k.now(), 0);
        k.schedule(k.now(), 1, "elastic.poll-failures",
                   [this](des::Kernel &kk) { pollFailures(kk); });
    }

    /**
     * Node-failure poll event: apply ONE due failure, re-arm while
     * more are due (recovery costs advance the clock, which can make
     * more due), then hand over to the rollback poll.
     */
    void
    pollFailures(des::Kernel &k)
    {
        if (!haltRequested && nodeFailureDue()) {
            const bool world_died = applyOneNodeFailure();
            k.advanceTo(s.simTimeSec);
            if (!world_died) {
                k.schedule(k.now(), 1, "elastic.poll-failures",
                           [this](des::Kernel &kk) {
                               pollFailures(kk);
                           });
                return;
            }
        }
        if (haltRequested) {
            final_ = result(false);
            return;
        }
        if (aliveNodes() == 0) {
            final_ = finish(result(false));
            return;
        }
        k.schedule(k.now(), 2, "elastic.poll-rollbacks",
                   [this](des::Kernel &kk) { pollRollbacks(kk); });
    }

    /** ECC rollback poll event: one rollback per dispatch, then step. */
    void
    pollRollbacks(des::Kernel &k)
    {
        if (!haltRequested && rollbackDue()) {
            applyOneRollback();
            k.advanceTo(s.simTimeSec);
            k.schedule(k.now(), 2, "elastic.poll-rollbacks",
                       [this](des::Kernel &kk) { pollRollbacks(kk); });
            return;
        }
        if (haltRequested) {
            final_ = result(false);
            return;
        }
        k.schedule(k.now(), 3, "elastic.step",
                   [this](des::Kernel &kk) { stepOnce(kk); });
    }

    /** The training-step event: run one step, commit, re-arm. */
    void
    stepOnce(des::Kernel &k)
    {
        const unsigned chips_now = aliveChips();
        // Re-shard: the same global batch over fewer chips means
        // proportionally more compute per chip. Guarded so the
        // full-world path runs the exact fault-free arithmetic.
        TrainingJob cur = job;
        if (chips_now != chips)
            cur.stepSecondsPerChip =
                job.stepSecondsPerChip *
                (double(chips) / double(chips_now));
        const FaultyCollectiveResult step = stepSecondsWithFaults(
            cur, cluster, chips_now, faults, retry, mode,
            s.simTimeSec);
        s.counters.retries += step.retries;
        s.counters.degradedSteps += step.degradedSteps;
        if (!step.completed) {
            s.simTimeSec += step.seconds; // time-to-failure
            k.advanceTo(s.simTimeSec);
            final_ = finish(result(false));
            return;
        }
        double step_sec = step.seconds;
        const double factor = stragglerFactor();
        if (factor > 1.0) {
            // The straggler stretches the compute phase; the
            // speculative copy re-dispatches that work elsewhere
            // at one retry's cost and the cheaper twin commits.
            const double slow =
                step_sec + cur.stepSecondsPerChip * (factor - 1.0);
            double chosen = slow;
            if (options.speculation) {
                const double spec =
                    step_sec + retry.timeoutSec +
                    resilience::retryDelaySeconds(retry, 0);
                if (spec < slow) {
                    chosen = spec;
                    ++s.counters.speculations;
                    traceRecovery("elastic.speculate", s.simTimeSec,
                                  s.simTimeSec + chosen, 0);
                    appendEvent(
                        eventPrefix() + "speculate step " +
                        std::to_string(
                            static_cast<unsigned long long>(
                                s.nextStep)) +
                        " saved " + formatSeconds(slow - spec));
                }
            }
            step_sec = chosen;
            if (haltRequested) {
                final_ = result(false); // step not committed
                return;
            }
        }
        s.simTimeSec += step_sec;
        ++s.nextStep;
        k.advanceTo(s.simTimeSec);
        if (s.nextStep < num_steps)
            armStep(k);
    }

    ElasticRunResult
    run()
    {
        setUp();
        des::Kernel kernel;
        // Checkpoints ride the kernel's quiescent points: no event
        // is mid-dispatch there, so the RunCheckpoint is consistent
        // by construction.
        kernel.onQuiescent([this](des::Kernel &k) {
            maybeCheckpoint();
            k.advanceTo(s.simTimeSec);
        });
        kernel.advanceTo(s.simTimeSec); // resumes re-enter mid-run
        if (s.nextStep < num_steps)
            armStep(kernel);
        kernel.run();
        if (final_)
            return *final_;
        return finish(result(true));
    }

    ElasticRunResult
    finish(const ElasticRunResult &r) const
    {
        if (store && r.completed)
            store->remove();
        // Sim-time counters: deterministic at any thread count.
        using resilience::ElasticCounters;
        static runtime::Counter &runs = runtime::counter(
            "elastic runs", runtime::CounterKind::Sum,
            runtime::Determinism::Deterministic);
        static const runtime::FieldCounters<ElasticCounters> fields = {
            {"elastic failovers", &ElasticCounters::failovers},
            {"elastic spares used", &ElasticCounters::sparesUsed},
            {"elastic shrinks", &ElasticCounters::shrinks},
            {"elastic pool-exhausted", &ElasticCounters::spareExhausted},
            {"elastic rollbacks", &ElasticCounters::rollbacks},
            {"elastic steps replayed", &ElasticCounters::replayedSteps},
            {"elastic speculations", &ElasticCounters::speculations},
            {"elastic checkpoints", &ElasticCounters::checkpointsSaved},
        };
        runs.charge(1);
        fields.charge(r.counters);
        return r;
    }
};

} // anonymous namespace

ElasticRunResult
runElastic(const TrainingJob &job, const ClusterConfig &cluster,
           unsigned chips, unsigned num_steps,
           const FaultSchedule &faults,
           const resilience::RetryPolicy &retry,
           resilience::DegradedMode mode, const ElasticOptions &options)
{
    Engine engine{job,    cluster, chips, num_steps,
                  faults, retry,   mode,  options};
    return engine.run();
}

ElasticRunResult
runElasticWithChipSim(
    const TrainingJob &job, const ClusterConfig &cluster, unsigned chips,
    unsigned num_steps,
    const std::vector<std::vector<soc::CoreTask>> &per_core,
    double mem_bytes_per_sec, const resilience::ChipFaultPlan &chip_plan,
    const FaultSchedule &faults, const resilience::RetryPolicy &retry,
    resilience::DegradedMode mode, const ElasticOptions &options)
{
    const soc::ChipSimResult chip =
        soc::runChipSim(per_core, mem_bytes_per_sec, chip_plan);
    if (!chip.completed) {
        // Every core died with work queued: no chip ever produces a
        // gradient, so the run fail-stops before its first step.
        ElasticRunResult r;
        r.completed = false;
        r.seconds = chip.makespan;
        r.finalNodes =
            unsigned(ceilDiv(chips, cluster.server.chips));
        r.finalChips = chips;
        return r;
    }
    TrainingJob chip_job = job;
    chip_job.stepSecondsPerChip = chip.makespan;
    return runElastic(chip_job, cluster, chips, num_steps, faults,
                      retry, mode, options);
}

} // namespace cluster
} // namespace ascend
