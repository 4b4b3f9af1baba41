/**
 * @file
 * Collective models implementation.
 */

#include "cluster/collective.hh"

#include <algorithm>
#include <limits>

#include "common/error.hh"
#include "common/field.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"

namespace ascend {
namespace cluster {

const char *
toString(CollectiveAlgo algo)
{
    switch (algo) {
      case CollectiveAlgo::Ring:            return "ring";
      case CollectiveAlgo::HalvingDoubling: return "halving-doubling";
      case CollectiveAlgo::Tree:            return "tree";
    }
    return "?";
}

namespace {

double
log2Ceil(unsigned n)
{
    double steps = 0;
    unsigned v = 1;
    while (v < n) {
        v *= 2;
        ++steps;
    }
    return steps;
}

/**
 * Emit a collective phase span on the Cluster track. The collectives
 * are closed-form (no global clock), so each top-level call lays its
 * phases out sequentially from ts 0 in nanoseconds; identical calls
 * dedup in the trace.
 */
double
tracePhase(const char *name, double startSec, double sec, Bytes bytes)
{
    if (sec > 0) {
        if (obs::Tracer *tracer = obs::Tracer::current()) {
            const std::uint64_t t0 = obs::traceNs(startSec);
            const std::uint64_t t1 = obs::traceNs(startSec + sec);
            tracer->span(obs::Domain::Cluster, 1, name, t0, t1 - t0,
                         bytes);
        }
    }
    return sec;
}

} // anonymous namespace

double
halvingDoublingAllreduceSeconds(Bytes bytes, unsigned n, double bw,
                                double latency)
{
    if (n <= 1)
        return 0.0;
    const double steps = 2.0 * log2Ceil(n);
    const double volume = 2.0 * (n - 1) / n * double(bytes);
    return volume / bw + steps * latency;
}

double
treeAllreduceSeconds(Bytes bytes, unsigned n, double bw, double latency)
{
    if (n <= 1)
        return 0.0;
    const double steps = 2.0 * log2Ceil(n);
    return steps * (double(bytes) / bw + latency);
}

double
allreduceAlgoSeconds(CollectiveAlgo algo, Bytes bytes, unsigned n,
                     double bw, double latency)
{
    switch (algo) {
      case CollectiveAlgo::Ring:
        return ringAllreduceSeconds(bytes, n, bw, latency);
      case CollectiveAlgo::HalvingDoubling:
        return halvingDoublingAllreduceSeconds(bytes, n, bw, latency);
      case CollectiveAlgo::Tree:
        return treeAllreduceSeconds(bytes, n, bw, latency);
    }
    panic("bad collective algo");
}

double
ringAllreduceSeconds(Bytes bytes, unsigned n, double bw, double latency)
{
    if (n <= 1)
        return 0.0;
    const double steps = 2.0 * (n - 1);
    const double volume = steps / n * double(bytes);
    return volume / bw + steps * latency;
}

double
serverAllreduceSeconds(const ServerConfig &server, Bytes bytes)
{
    simAssert(server.chips % server.chipsPerGroup == 0,
              "server groups must divide chips");
    const unsigned groups = server.chips / server.chipsPerGroup;
    // Reduce-scatter + allgather within the group over HCCS.
    double sec = tracePhase(
        "hccs-ring", 0,
        ringAllreduceSeconds(bytes, server.chipsPerGroup,
                             server.hccsBytesPerSec,
                             server.linkLatencySec),
        bytes);
    if (groups > 1) {
        // Group leaders exchange the group-reduced shard over PCIe.
        const Bytes shard = bytes / server.chipsPerGroup;
        sec += tracePhase("pcie-ring", sec,
                          ringAllreduceSeconds(shard, groups,
                                               server.pcieBytesPerSec,
                                               server.linkLatencySec),
                          shard);
    }
    return sec;
}

double
hierarchicalAllreduceSeconds(const ClusterConfig &cluster, Bytes bytes)
{
    // Phase 1: reduce-scatter inside each server (every chip ends up
    // owning a 1/chips shard of the reduced gradient).
    const ServerConfig &srv = cluster.server;
    double sec = serverAllreduceSeconds(srv, bytes);
    if (cluster.servers > 1) {
        // Phase 2: ring allreduce across servers on each shard; the
        // shards move in parallel over each server's uplink.
        const Bytes shard = bytes / srv.chips;
        sec += tracePhase("inter-server-ring", sec,
                          ringAllreduceSeconds(shard, cluster.servers,
                                               cluster.netBytesPerSec,
                                               cluster.netLatencySec),
                          shard);
    }
    return sec;
}

double
jobAllreduceSeconds(const ClusterConfig &cluster, Bytes bytes,
                    unsigned chips)
{
    const unsigned per_server = cluster.server.chips;
    if (chips <= 1)
        return 0.0;
    if (chips <= per_server) {
        ServerConfig partial = cluster.server;
        partial.chips = std::min(chips, per_server);
        partial.chipsPerGroup =
            std::min(partial.chips, partial.chipsPerGroup);
        if (partial.chips % partial.chipsPerGroup != 0)
            partial.chipsPerGroup = 1;
        return serverAllreduceSeconds(partial, bytes);
    }
    ClusterConfig partial = cluster;
    partial.servers = unsigned(ceilDiv(chips, per_server));
    return hierarchicalAllreduceSeconds(partial, bytes);
}

double
stepSeconds(const TrainingJob &job, const ClusterConfig &cluster,
            unsigned chips)
{
    if (chips == 0)
        throwError(ErrorCode::ConfigValidation,
                   "a training step needs at least one chip");
    const double comm =
        jobAllreduceSeconds(cluster, job.gradientBytes, chips);
    const double exposed =
        comm * (1.0 - std::clamp(job.overlapFraction, 0.0, 1.0));
    return job.stepSecondsPerChip + exposed;
}

double
throughputSamplesPerSec(const TrainingJob &job, const ClusterConfig &cluster,
                        unsigned chips)
{
    const double step = stepSeconds(job, cluster, chips);
    return step > 0
        ? double(job.samplesPerChipStep) * chips / step : 0.0;
}

double
pipelineStepSeconds(const PipelineJob &job)
{
    checkFields(job, "pipeline job");
    // Per-micro-batch slot: stage compute plus shipping the boundary
    // activations to the next stage (overlappable only across
    // different micro-batches, so it adds to the slot time when it
    // exceeds nothing; first-order: slot = compute + transfer).
    const double transfer =
        job.stages > 1
            ? double(job.boundaryBytes) / job.linkBytesPerSec +
                  job.linkLatencySec
            : 0.0;
    const double slot = job.stageSecondsPerMicroBatch + transfer;
    // 1F1B: (microBatches + stages - 1) slots end-to-end.
    return double(job.microBatches + job.stages - 1) * slot;
}

double
pipelineBubbleFraction(const PipelineJob &job)
{
    checkFields(job, "pipeline job");
    return double(job.stages - 1) /
           double(job.microBatches + job.stages - 1);
}

double
scalingEfficiency(const TrainingJob &job, const ClusterConfig &cluster,
                  unsigned chips)
{
    const double one = throughputSamplesPerSec(job, cluster, 1);
    const double many = throughputSamplesPerSec(job, cluster, chips);
    return one > 0 ? many / (one * chips) : 0.0;
}

void
ServerConfig::validate() const
{
    checkFields(*this, "server");
    if (chips % chipsPerGroup != 0)
        throwError(ErrorCode::ConfigValidation,
                   "chips_per_group (%u) must divide chips (%u)",
                   chipsPerGroup, chips);
}

void
ClusterConfig::validate() const
{
    server.validate();
    checkFields(*this, "cluster");
    if (std::uint64_t(servers) * server.chips >
        std::numeric_limits<unsigned>::max())
        throwError(ErrorCode::ConfigValidation,
                   "%u servers of %u chips overflow the chip count",
                   servers, server.chips);
}

} // namespace cluster
} // namespace ascend

