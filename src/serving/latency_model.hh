/**
 * @file
 * Batch-size -> inference-latency curves for the fleet simulator.
 *
 * A serving replica answers requests in batches; the only thing the
 * fleet engine needs from the chip level is "how long does a batch of
 * b take on one replica". This model is that curve: a handful of
 * measured (batch, seconds) points with piecewise-linear
 * interpolation between them.
 *
 * The measured points come from the repo's own chip simulator —
 * fromGraph() runs a batch-parameterized graph (a zoo network or a
 * KV-cache decoder) through a runtime::SimSession at each anchor
 * batch size, so every sample is served from (or installed into) the
 * content-addressed SimCache and the curve is byte-stable across runs
 * and thread counts. linear()
 * builds a synthetic curve for tests and chaos drills where the cost
 * model is not the thing under test.
 */

#ifndef ASCEND_SERVING_LATENCY_MODEL_HH
#define ASCEND_SERVING_LATENCY_MODEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hh"
#include "runtime/sim_session.hh"

namespace ascend {
namespace serving {

/** Per-replica batch latency curve (piecewise linear, monotone). */
class BatchLatencyModel
{
  public:
    BatchLatencyModel() = default;

    /**
     * Curve through explicit @p points (batch, seconds); sorted and
     * validated (batches strictly increasing from >= 1, latencies
     * positive and non-decreasing). This and the three builders below
     * throw ascend::Error(ConfigValidation) on input they cannot use.
     */
    static BatchLatencyModel
    fromPoints(std::vector<std::pair<unsigned, double>> points);

    /** Synthetic affine curve: base + perRequest * batch. */
    static BatchLatencyModel linear(double base_sec,
                                    double per_request_sec,
                                    unsigned max_batch);

    /**
     * Measure the curve on the chip simulator: for each anchor batch
     * b in @p batches, lower builder(b) through graph::graphResult on
     * @p session and take totalCycles / clock. KV-cache decoders and
     * other DAG-shaped models (graph/decoder.hh) feed the fleet like
     * the zoo networks do. Results are memoized by the session's
     * SimCache and its whole-graph memo like every other simulation.
     */
    static BatchLatencyModel
    fromGraph(const runtime::SimSession &session,
              const std::function<graph::Graph(unsigned)> &builder,
              const std::vector<unsigned> &batches, double clock_ghz);

    /**
     * Anchor batch sizes for a dense curve up to @p max_batch: every
     * batch through 8, then a step that doubles per octave (8..16 by
     * 2, 16..32 by 4, ...), always ending exactly at max_batch.
     * Surrogate-enabled sessions (runtime::SimSession with
     * ASCEND_SURROGATE=1) make simulating all of them affordable —
     * the anchors beyond batch 8 the fleet sweeps used to skip.
     */
    static std::vector<unsigned> denseAnchors(unsigned max_batch);

    /** Latency of a batch of @p batch requests (clamped to curve). */
    double latencySeconds(unsigned batch) const;

    /** Largest batch one replica dispatches at once. */
    unsigned maxBatch() const;

    /**
     * Throughput ceiling of @p replicas replicas all running full
     * batches back to back — the knee the overload sweeps are
     * normalized against.
     */
    double saturationRequestsPerSec(unsigned replicas) const;

    const std::vector<std::pair<unsigned, double>> &points() const
    {
        return points_;
    }

    /** Exact identity of the curve (checkpoint/runId fingerprints). */
    std::string fingerprint() const;

  private:
    std::vector<std::pair<unsigned, double>> points_;
};

} // namespace serving
} // namespace ascend

#endif // ASCEND_SERVING_LATENCY_MODEL_HH
