/**
 * @file
 * The elastic cluster-run state machine.
 *
 * The engine is deliberately a pure function of (immutable inputs,
 * ElasticState + the journal's event log): every mutation lives
 * there, every cost is serial double arithmetic, and nothing reads
 * the wall clock or thread count — which is what makes kill-and-resume
 * byte-identical and lets bench_chaos enforce it with real SIGKILLs.
 *
 * One loop iteration is one training step. Its instant runs, in
 * order: the cadenced checkpoint, the node failures due by now, the
 * ECC rollbacks due by now, and the step itself. Failures and
 * rollbacks are applied ONE at a time with the due test re-checked
 * after each: recovery costs advance the sim clock mid-batch, which
 * can make further faults due, and one-at-a-time application
 * reproduces that cascade exactly. Faults are deliberately NOT
 * applied at their strike times — the engine batches "every node
 * failure due by now, then every rollback due by now" at each step
 * boundary.
 *
 * The checkpoint comes first in the instant, before any fault or
 * step of it has run, so the ElasticState it saves is consistent. A
 * resumed run re-enters the loop at the same instant with the cadence
 * trivially not-due (the save itself reset it), so it replays exactly
 * what the uninterrupted run did after the save — including failures
 * and rollbacks that became due during the saveSec window. A SIGKILL
 * after any save therefore resumes into a byte-identical continuation
 * (bench_chaos enforces this with real kills at event boundaries).
 */

#include "cluster/elastic_run.hh"

#include <algorithm>
#include <sstream>

#include "common/field.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"

namespace ascend {
namespace cluster {

using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultSchedule;
using resilience::formatSeconds;

namespace {

/** Sentinel for a shrunk (unreplaced) slot in activeNodes. */
constexpr std::uint32_t kDeadSlot = 0xffffffffu;

/** The elastic checkpoint: <checkpointDir>/elastic.ckpt, ASCCKPT v2. */
const resilience::JournalFormat kJournalFormat = {
    "elastic", {'A', 'S', 'C', 'C', 'K', 'P', 'T', '\n'}, 2};

/**
 * Complete engine state at one event boundary, less the event log the
 * journal keeps: simulated clock, next step, surviving world, spare
 * budget, resilience counters and fault cursors.
 */
struct ElasticState
{
    std::uint64_t sequence = 0; ///< checkpoint ordinal within the run
    std::uint64_t nextStep = 0; ///< first step not yet committed
    double simTimeSec = 0;      ///< simulated clock at the boundary

    /** Surviving node ids (spares have ids >= the initial count). */
    std::vector<std::uint32_t> activeNodes;
    std::uint64_t sparesLeft = 0;

    /** Step/time of the last *logical* (rollback target) checkpoint. */
    std::uint64_t lastCheckpointStep = 0;
    double lastCheckpointSec = 0;

    /// @{ Cursors into the time-sorted fault-event lists.
    std::uint64_t nodeEventCursor = 0;
    std::uint64_t eccEventCursor = 0;
    /// @}

    ElasticCounters counters;
};

/** ElasticState's fields, in ASCCKPT v2 body order (common/field.hh). */
template <typename F, RecordOf<ElasticState>... S>
void
forEachField(F &&f, S &...s)
{
    f("sequence", s.sequence...);
    f("next_step", s.nextStep...);
    f(nonNegative("sim_time_sec"), s.simTimeSec...);
    f("active_nodes", s.activeNodes...);
    f("spares_left", s.sparesLeft...);
    f("last_checkpoint_step", s.lastCheckpointStep...);
    f(nonNegative("last_checkpoint_sec"), s.lastCheckpointSec...);
    f("node_event_cursor", s.nodeEventCursor...);
    f("ecc_event_cursor", s.eccEventCursor...);
    f("counters", s.counters...);
}

/** Recovery-phase span on the Cluster domain's elastic track (2). */
void
traceRecovery(const char *name, double t0_sec, double t1_sec,
              Bytes bytes)
{
    if (obs::Tracer *tracer = obs::Tracer::current()) {
        const std::uint64_t t0 = obs::traceNs(t0_sec);
        const std::uint64_t t1 = obs::traceNs(t1_sec);
        tracer->span(obs::Domain::Cluster, 2, name, t0,
                     t1 > t0 ? t1 - t0 : 0, bytes);
    }
}

} // anonymous namespace

std::string
runFingerprint(const TrainingJob &job, const ClusterConfig &cluster,
               unsigned chips, unsigned num_steps,
               const FaultSchedule &faults,
               const resilience::RetryPolicy &retry,
               resilience::DegradedMode mode,
               const ElasticOptions &options)
{
    // The schedule's own fingerprint, not fingerprint(spec()):
    // correlated schedules (resilience::generateCorrelated) carry an
    // identity their nominal spec alone cannot reproduce.
    return "elastic-run:" +
           fieldKey(chips, num_steps, job, retry, mode, options) +
           faults.fingerprint() + fieldKey(cluster);
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
 * All state and steps of one elastic run (see the file comment for
 * the loop). Mutations touch only `s` and the journal (the
 * checkpointable state).
 */
struct Engine
{
    Engine(const TrainingJob &job_, const ClusterConfig &cluster_,
           unsigned chips_, unsigned num_steps_,
           const FaultSchedule &faults_,
           const resilience::RetryPolicy &retry_,
           resilience::DegradedMode mode_, const ElasticOptions &options_)
        : job(job_), cluster(cluster_), chips(chips_),
          num_steps(num_steps_), faults(faults_), retry(retry_),
          mode(mode_), options(options_)
    {
    }

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

    ElasticState s;
    resilience::RunJournal journal{options, kJournalFormat};

    void
    setUp()
    {
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

        s.activeNodes.resize(initialNodes);
        for (unsigned i = 0; i < initialNodes; ++i)
            s.activeNodes[i] = i;
        s.sparesLeft = options.spareNodes;

        if (journal.persistent()) {
            ElasticState loaded;
            if (journal.load(runFingerprint(job, cluster, chips,
                                            num_steps, faults, retry,
                                            mode, options),
                             [&](ByteReader &r) {
                                 return decodeBody(r, loaded) &&
                                        consistent(loaded);
                             }) == FrameStatus::Ok)
                s = std::move(loaded);
        }
    }

    /**
     * True when @p st is a state this run could have saved: the
     * identity matched, so anything else is a damaged body that must
     * not index past the inputs.
     */
    bool
    consistent(const ElasticState &st) const
    {
        if (st.activeNodes.size() != initialNodes ||
            st.sparesLeft > options.spareNodes ||
            st.nextStep > num_steps ||
            st.lastCheckpointStep > st.nextStep ||
            st.nodeEventCursor > nodeFail.size() ||
            st.eccEventCursor > ecc.size() ||
            st.lastCheckpointSec > st.simTimeSec)
            return false;
        for (std::uint32_t phys : st.activeNodes)
            if (phys != kDeadSlot &&
                phys >= spareBase + options.spareNodes)
                return false;
        return true;
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

    std::string
    eventPrefix() const
    {
        return journal.prefix(s.simTimeSec);
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
     * (one iteration of the failure loop). Independent schedules
     * place one event per instant and behave exactly as before. A
     * correlated domain event (a rack or power strike from
     * fault_domain.hh) lands several deaths at one shared instant;
     * their recoveries proceed in parallel — each spare receives its
     * shard over its own uplink — so the step pays the slowest single
     * recovery, not the serialized sum. @return true when the whole
     * world died.
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
                journal.append(eventPrefix() + "failover slot " +
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
                    journal.append(eventPrefix() +
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
                journal.append(eventPrefix() + "shrink slot " +
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
        journal.append(line);
    }

    /** Take a (logical + on-disk) checkpoint when the cadence is due. */
    void
    maybeCheckpoint()
    {
        if (journal.halted() || !options.checkpoint.enabled)
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
        journal.append(line);
        if (journal.persistent())
            journal.save(encodeBody(s));
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
        r.completed = completed && !journal.halted();
        r.halted = journal.halted();
        r.finalNodes = aliveNodes();
        r.finalChips = aliveChips();
        r.counters = s.counters;
        r.eventLog = journal.log();
        return r;
    }

    /**
     * Run one training step and commit it. @return false when the
     * step ended the run instead: the collective failed, or the
     * journal halted before the commit.
     */
    bool
    stepOnce()
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
            return false;
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
                    journal.append(
                        eventPrefix() + "speculate step " +
                        std::to_string(
                            static_cast<unsigned long long>(
                                s.nextStep)) +
                        " saved " + formatSeconds(slow - spec));
                }
            }
            step_sec = chosen;
            if (journal.halted())
                return false; // step not committed
        }
        s.simTimeSec += step_sec;
        ++s.nextStep;
        return true;
    }

    /** The outcome of a run cut short: a halt, or a lost world. */
    ElasticRunResult
    cutShort() const
    {
        return journal.halted() ? result(false) : finish(result(false));
    }

    /**
     * The engine loop; see the file comment for the order of one
     * instant. perf/driver.cc reads the "des-kernel" scope for its
     * des.kernel_s metric, so the loop keeps that name.
     */
    ElasticRunResult
    run()
    {
        setUp();
        static runtime::PerfScope &perf =
            runtime::perfScope("des-kernel");
        const runtime::PerfTimer timer(perf);
        while (s.nextStep < num_steps) {
            maybeCheckpoint();
            while (!journal.halted() && nodeFailureDue())
                if (applyOneNodeFailure())
                    break; // the whole world died
            if (journal.halted() || aliveNodes() == 0)
                return cutShort();
            while (!journal.halted() && rollbackDue())
                applyOneRollback();
            if (journal.halted() || !stepOnce())
                return cutShort();
        }
        return finish(result(true));
    }

    ElasticRunResult
    finish(const ElasticRunResult &r) const
    {
        if (journal.persistent() && r.completed)
            journal.remove();
        // Sim-time counters: deterministic at any thread count.
        static runtime::Counter &runs = runtime::counter(
            "elastic runs", runtime::CounterKind::Sum,
            runtime::Determinism::Deterministic);
        runs.charge(1);
        runtime::chargeFields("elastic", r.counters);
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
    if (chips == 0)
        throwError(ErrorCode::ConfigValidation,
                   "an elastic run needs at least one chip");
    checkFields(job, "training job");
    checkFields(retry, "retry");
    checkFields(options, "elastic");
    Engine engine(job, cluster, chips, num_steps, faults, retry, mode,
                  options);
    return engine.run();
}

} // namespace cluster
} // namespace ascend
