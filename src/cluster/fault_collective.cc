/**
 * @file
 * Fault-aware collective implementation.
 */

#include "cluster/fault_collective.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"

namespace ascend {
namespace cluster {

using resilience::DegradedMode;
using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultSchedule;
using resilience::RetryPolicy;

namespace {

/** True when any link-down outage covers time @p t. */
bool
anyLinkDown(const std::vector<FaultEvent> &events, double t)
{
    for (const FaultEvent &e : events) {
        if (e.timeSec > t)
            break; // sorted by time; later events cannot cover t
        if (e.kind == FaultKind::LinkDown &&
            t < e.timeSec + e.durationSec)
            return true;
    }
    return false;
}

/** Worst bandwidth factor among degrade windows covering @p t. */
double
worstDegradeFactor(const std::vector<FaultEvent> &events, double t)
{
    double factor = 1.0;
    for (const FaultEvent &e : events) {
        if (e.timeSec > t)
            break;
        if (e.kind == FaultKind::LinkDegraded &&
            t < e.timeSec + e.durationSec)
            factor = std::min(factor, e.severity);
    }
    return factor;
}

/** Link-kind events of the schedule, in time order. */
std::vector<FaultEvent>
linkEventsOf(const FaultSchedule &faults)
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &e : faults.events())
        if (e.kind == FaultKind::LinkDown ||
            e.kind == FaultKind::LinkDegraded)
            out.push_back(e);
    return out;
}

/**
 * Walk @p steps collective steps of @p volume_per_step bytes each,
 * charging retry/degradation penalties on top of the exact
 * @p baseline. The step at index s starts at
 * start_sec + s * nominal + penalty-so-far.
 */
FaultyCollectiveResult
runSteps(double baseline, unsigned steps, double volume_per_step,
         double bw, double latency,
         const std::vector<FaultEvent> &events, const RetryPolicy &retry,
         DegradedMode mode, double start_sec)
{
    FaultyCollectiveResult r;
    r.seconds = baseline;
    if (events.empty() || steps == 0)
        return r; // penalty is exactly 0: bit-identical to fault-free
    const double nominal = volume_per_step / bw + latency;
    const double stream = volume_per_step / bw;
    for (unsigned s = 0; s < steps; ++s) {
        double now = start_sec + s * nominal + r.penaltySeconds;
        if (anyLinkDown(events, now)) {
            ++r.downSteps;
            unsigned attempt = 0;
            while (anyLinkDown(events, now) &&
                   attempt < retry.maxRetries) {
                const double delay =
                    retry.timeoutSec +
                    resilience::retryDelaySeconds(retry, attempt);
                r.penaltySeconds += delay;
                now += delay;
                ++attempt;
                ++r.retries;
            }
            if (anyLinkDown(events, now)) {
                if (mode == DegradedMode::FailStop) {
                    r.completed = false;
                    r.seconds = now - start_sec; // time-to-failure
                    return r;
                }
                // Route around the dead link at degraded bandwidth.
                const double f =
                    std::max(retry.degradedBandwidthFactor, 1e-6);
                r.penaltySeconds += stream / f - stream;
                ++r.degradedSteps;
                continue;
            }
        }
        const double f =
            std::max(worstDegradeFactor(events, now), 1e-6);
        if (f < 1.0) {
            r.penaltySeconds += stream / f - stream;
            ++r.degradedSteps;
        }
    }
    r.seconds = baseline + r.penaltySeconds;
    return r;
}

} // anonymous namespace

FaultyCollectiveResult
allreduceWithFaults(CollectiveAlgo algo, Bytes bytes, unsigned n,
                    double bw, double latency,
                    const FaultSchedule &faults, const RetryPolicy &retry,
                    DegradedMode mode, double start_sec)
{
    const double baseline =
        allreduceAlgoSeconds(algo, bytes, n, bw, latency);
    if (n <= 1) {
        FaultyCollectiveResult r;
        r.seconds = baseline;
        return r;
    }
    unsigned steps = 0;
    double volume_per_step = 0;
    switch (algo) {
      case CollectiveAlgo::Ring:
        steps = 2 * (n - 1);
        volume_per_step = double(bytes) / n;
        break;
      case CollectiveAlgo::HalvingDoubling: {
        unsigned log_steps = 0;
        for (unsigned v = 1; v < n; v *= 2)
            ++log_steps;
        steps = 2 * log_steps;
        volume_per_step =
            2.0 * (n - 1) / n * double(bytes) / double(steps);
        break;
      }
      case CollectiveAlgo::Tree: {
        unsigned log_steps = 0;
        for (unsigned v = 1; v < n; v *= 2)
            ++log_steps;
        steps = 2 * log_steps;
        volume_per_step = double(bytes);
        break;
      }
    }
    return runSteps(baseline, steps, volume_per_step, bw, latency,
                    linkEventsOf(faults), retry, mode, start_sec);
}

FaultyCollectiveResult
hierarchicalAllreduceWithFaults(const ClusterConfig &cluster, Bytes bytes,
                                const FaultSchedule &faults,
                                const RetryPolicy &retry,
                                DegradedMode mode, double start_sec)
{
    // Intra-server phases: HCCS/PCIe hops, modeled fault-free.
    const ServerConfig &srv = cluster.server;
    const double intra = serverAllreduceSeconds(srv, bytes);
    FaultyCollectiveResult r;
    r.seconds = intra;
    if (cluster.servers <= 1)
        return r;
    // Inter-server ring on the shard, over the faultable uplinks.
    const Bytes shard = bytes / srv.chips;
    const FaultyCollectiveResult inter = allreduceWithFaults(
        CollectiveAlgo::Ring, shard, cluster.servers,
        cluster.netBytesPerSec, cluster.netLatencySec, faults, retry,
        mode, start_sec + intra);
    r.seconds = intra + inter.seconds;
    r.penaltySeconds = inter.penaltySeconds;
    r.retries = inter.retries;
    r.degradedSteps = inter.degradedSteps;
    r.downSteps = inter.downSteps;
    r.completed = inter.completed;
    return r;
}

FaultyCollectiveResult
stepSecondsWithFaults(const TrainingJob &job, const ClusterConfig &cluster,
                      unsigned chips, const FaultSchedule &faults,
                      const RetryPolicy &retry, DegradedMode mode,
                      double start_sec)
{
    if (chips == 0)
        throwError(ErrorCode::ConfigValidation,
                   "a training step needs at least one chip");
    const unsigned per_server = cluster.server.chips;
    FaultyCollectiveResult comm;
    if (chips <= 1) {
        comm.seconds = 0.0;
    } else if (chips <= per_server) {
        // Intra-server only: no fat-tree uplink is involved, so the
        // fault-free closed form applies exactly.
        comm.seconds = jobAllreduceSeconds(cluster, job.gradientBytes,
                                           chips);
    } else {
        ClusterConfig partial = cluster;
        partial.servers = unsigned(ceilDiv(chips, per_server));
        comm = hierarchicalAllreduceWithFaults(partial,
                                               job.gradientBytes, faults,
                                               retry, mode, start_sec);
    }
    const double exposed =
        comm.seconds *
        (1.0 - std::clamp(job.overlapFraction, 0.0, 1.0));
    FaultyCollectiveResult r = comm;
    r.seconds = job.stepSecondsPerChip + exposed;
    return r;
}

double
throughputSamplesPerSecWithFaults(const TrainingJob &job,
                                  const ClusterConfig &cluster,
                                  unsigned chips,
                                  const FaultSchedule &faults,
                                  const RetryPolicy &retry,
                                  DegradedMode mode)
{
    const FaultyCollectiveResult step =
        stepSecondsWithFaults(job, cluster, chips, faults, retry, mode);
    if (!step.completed || step.seconds <= 0)
        return 0.0;
    return double(job.samplesPerChipStep) * chips / step.seconds;
}

TrainingRunResult
trainingRunWithFaults(const TrainingJob &job, const ClusterConfig &cluster,
                      unsigned chips, unsigned num_steps,
                      const FaultSchedule &faults,
                      const RetryPolicy &retry, DegradedMode mode,
                      const resilience::CheckpointPolicy &checkpoint,
                      double ecc_uncorrectable_per_sec)
{
    TrainingRunResult run;
    double now = 0;
    for (unsigned s = 0; s < num_steps; ++s) {
        const FaultyCollectiveResult step = stepSecondsWithFaults(
            job, cluster, chips, faults, retry, mode, now);
        now += step.seconds;
        run.retries += step.retries;
        run.degradedSteps += step.degradedSteps;
        if (!step.completed) {
            run.completed = false;
            run.stepsDone = s;
            run.seconds = now; // time-to-failure
            return run;
        }
        ++run.stepsDone;
    }
    run.seconds = resilience::timeWithCheckpointRestart(
        now, ecc_uncorrectable_per_sec, checkpoint);
    return run;
}

ChipTrainingRunResult
trainingRunWithChipFaults(
    const TrainingJob &job, const ClusterConfig &cluster, unsigned chips,
    unsigned num_steps,
    const std::vector<std::vector<soc::CoreTask>> &per_core,
    double mem_bytes_per_sec,
    const resilience::ChipFaultPlan &chip_plan,
    const FaultSchedule &faults, const RetryPolicy &retry,
    DegradedMode mode, const resilience::CheckpointPolicy &checkpoint,
    double ecc_uncorrectable_per_sec)
{
    ChipTrainingRunResult r;
    r.chip = soc::runChipSim(per_core, mem_bytes_per_sec, chip_plan);
    if (!r.chip.completed) {
        // Every core died with work still queued: the chip never
        // produces a gradient, so the job fail-stops immediately.
        r.run.completed = false;
        r.run.seconds = r.chip.makespan;
        return r;
    }
    r.stepSecondsPerChip = r.chip.makespan;
    TrainingJob chip_job = job;
    chip_job.stepSecondsPerChip = r.chip.makespan;
    r.run = trainingRunWithFaults(chip_job, cluster, chips, num_steps,
                                  faults, retry, mode, checkpoint,
                                  ecc_uncorrectable_per_sec);
    return r;
}

} // namespace cluster
} // namespace ascend
