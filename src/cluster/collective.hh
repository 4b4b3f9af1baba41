/**
 * @file
 * Server and cluster topology with collective-communication models
 * (Section 4.2 / Fig. 15).
 *
 * An Ascend 910 server holds eight chips as two groups of four; the
 * intra-group fabric is the cache-coherent HCCS network (30 GB/s per
 * chip), groups talk over PCIe (32 GB/s), and servers connect through
 * a fat-tree at 100 Gbps per server link. Gradient allreduce is
 * hierarchical: ring reduce-scatter inside the group, exchange across
 * groups, ring allreduce across servers on the shard, then the
 * mirror-image allgather back down.
 */

#ifndef ASCEND_CLUSTER_COLLECTIVE_HH
#define ASCEND_CLUSTER_COLLECTIVE_HH

#include "common/types.hh"

namespace ascend {
namespace cluster {

/** One Ascend 910 server (Fig. 15 lower half). */
struct ServerConfig
{
    unsigned chips = 8;
    unsigned chipsPerGroup = 4;
    double hccsBytesPerSec = 30e9;  ///< intra-group, per chip
    double pcieBytesPerSec = 32e9;  ///< inter-group bus
    double linkLatencySec = 2e-6;

    /**
     * Reject fields outside their domains (forEachField below) and
     * groups that do not divide the chips; throws ascend::Error with
     * code ConfigValidation (zero bandwidth would otherwise propagate
     * as silent inf/NaN through every time formula downstream).
     */
    void validate() const;
};

/** ServerConfig's fields under their cluster-text keys. */
template <typename F, RecordOf<ServerConfig>... S>
void
forEachField(F &&f, S &...s)
{
    f(positive("chips"), s.chips...);
    f(positive("chips_per_group"), s.chipsPerGroup...);
    f(positive("hccs_bytes_per_sec"), s.hccsBytesPerSec...);
    f(positive("pcie_bytes_per_sec"), s.pcieBytesPerSec...);
    f(nonNegative("link_latency_sec"), s.linkLatencySec...);
}

/** A fat-tree cluster of servers (Fig. 15 upper half). */
struct ClusterConfig
{
    ServerConfig server;
    unsigned servers = 256;
    double netBytesPerSec = 12.5e9; ///< 100 Gbps per server
    double netLatencySec = 5e-6;

    unsigned totalChips() const { return servers * server.chips; }

    /** Validate the server, the fat tree and totalChips(); see above. */
    void validate() const;
};

/**
 * ClusterConfig's fields under their cluster-text keys, the server's
 * spliced in first (common/field.hh).
 */
template <typename F, RecordOf<ClusterConfig>... C>
void
forEachField(F &&f, C &...c)
{
    forEachField(f, c.server...);
    f(positive("servers"), c.servers...);
    f(positive("net_bytes_per_sec"), c.netBytesPerSec...);
    f(nonNegative("net_latency_sec"), c.netLatencySec...);
}

/**
 * Parse a cluster description: starts from @p base and applies
 * `key = value` lines whose keys are the forEachField list's above
 * (`#` comments). Throws ascend::Error(ConfigParse) on malformed text,
 * an unknown key or a value its field cannot hold (`servers = -1`);
 * the result is validate()d before it is returned.
 */
ClusterConfig clusterConfigFromString(const std::string &text,
                                      const ClusterConfig &base = {});

/** Serialize @p config as `key = value` lines (round-trips exactly). */
std::string clusterConfigToString(const ClusterConfig &config);

/** Allreduce algorithm families (Section 4.2 software stack). */
enum class CollectiveAlgo { Ring, HalvingDoubling, Tree };

const char *toString(CollectiveAlgo algo);

/**
 * Ring allreduce over @p n endpoints with per-endpoint link
 * bandwidth @p bw: 2(n-1)/n data volume per endpoint plus 2(n-1)
 * latency hops. Bandwidth-optimal, latency-heavy at scale.
 */
double ringAllreduceSeconds(Bytes bytes, unsigned n, double bw,
                            double latency);

/**
 * Recursive halving-doubling: 2*log2(n) steps moving the same
 * 2(n-1)/n volume; latency-optimal for power-of-two groups (rounded
 * up for other sizes).
 */
double halvingDoublingAllreduceSeconds(Bytes bytes, unsigned n, double bw,
                                       double latency);

/**
 * Binary-tree reduce + broadcast: 2*log2(n) full-volume hops. Worst
 * bandwidth, best for tiny messages.
 */
double treeAllreduceSeconds(Bytes bytes, unsigned n, double bw,
                            double latency);

/** Dispatch on @p algo. */
double allreduceAlgoSeconds(CollectiveAlgo algo, Bytes bytes, unsigned n,
                            double bw, double latency);

/**
 * Hierarchical allreduce of @p bytes of gradients across the whole
 * cluster; returns seconds.
 */
double hierarchicalAllreduceSeconds(const ClusterConfig &cluster,
                                    Bytes bytes);

/** Allreduce across the eight chips of one server only. */
double serverAllreduceSeconds(const ServerConfig &server, Bytes bytes);

/**
 * Allreduce time for a job spanning @p chips chips: within one
 * (possibly partial) server it degrades to the server collective,
 * beyond it to the hierarchical form over ceil(chips/8) servers.
 */
double jobAllreduceSeconds(const ClusterConfig &cluster, Bytes bytes,
                           unsigned chips);

/**
 * Data-parallel synchronous-SGD throughput model.
 */
struct TrainingJob
{
    double stepSecondsPerChip = 0; ///< compute time of one step
    Bytes gradientBytes = 0;       ///< allreduce volume (fp16 grads)
    unsigned samplesPerChipStep = 0;
    /** Fraction of the allreduce hidden behind backward compute. */
    double overlapFraction = 0.5;
};

/** TrainingJob's fields, keyed and checked by runElastic. */
template <typename F, RecordOf<TrainingJob>... J>
void
forEachField(F &&f, J &...j)
{
    f(nonNegative("step_seconds_per_chip"), j.stepSecondsPerChip...);
    f("gradient_bytes", j.gradientBytes...);
    f("samples_per_chip_step", j.samplesPerChipStep...);
    f("overlap_fraction", j.overlapFraction...);
}

/** Per-step wall time with gradient sync; throws at zero chips. */
double stepSeconds(const TrainingJob &job, const ClusterConfig &cluster,
                   unsigned chips);

/** Samples per second at @p chips chips. */
double throughputSamplesPerSec(const TrainingJob &job,
                               const ClusterConfig &cluster,
                               unsigned chips);

/**
 * Pipeline-parallel execution of one step (an extension beyond the
 * paper's data-parallel evaluation): the model is split into
 * `stages` sequential stages across chips, the batch into
 * `microBatches`, and a 1F1B-style schedule fills the pipeline. The
 * bubble fraction is (stages-1)/(microBatches+stages-1); stage
 * boundaries ship activations over the given link.
 */
struct PipelineJob
{
    unsigned stages = 4;
    unsigned microBatches = 16;
    /** Compute seconds of one micro-batch on one stage (fwd+bwd). */
    double stageSecondsPerMicroBatch = 0;
    /** Activation volume crossing each stage boundary per micro-batch. */
    Bytes boundaryBytes = 0;
    double linkBytesPerSec = 30e9; ///< HCCS by default
    double linkLatencySec = 2e-6;
};

/** PipelineJob's fields, checked by the two functions below. */
template <typename F, RecordOf<PipelineJob>... J>
void
forEachField(F &&f, J &...j)
{
    f(positive("stages"), j.stages...);
    f(positive("micro_batches"), j.microBatches...);
    f(nonNegative("stage_seconds_per_micro_batch"),
      j.stageSecondsPerMicroBatch...);
    f("boundary_bytes", j.boundaryBytes...);
    f(positive("link_bytes_per_sec"), j.linkBytesPerSec...);
    f(nonNegative("link_latency_sec"), j.linkLatencySec...);
}

/** Wall time of one pipelined step. */
double pipelineStepSeconds(const PipelineJob &job);

/** Fraction of stage-time lost to fill/drain bubbles. */
double pipelineBubbleFraction(const PipelineJob &job);

/** Scaling efficiency vs a single chip. */
double scalingEfficiency(const TrainingJob &job,
                         const ClusterConfig &cluster, unsigned chips);

} // namespace cluster
} // namespace ascend

#endif // ASCEND_CLUSTER_COLLECTIVE_HH
