/**
 * @file
 * Lowering: graph IR -> linear layer schedule -> SimSession run.
 *
 * A validated Graph lowers to an ordered list of model::Layer work in
 * deterministic topological order (graph/graph.hh topoOrder). Compute
 * nodes (OpKind::Layer) lower to their layer verbatim; ResidualAdd
 * lowers to Layer::elementwise over its tensor volume (the ".add"
 * layers of the zoo golden). Concat and Split are pure wiring: zero
 * cycles, elided from the schedule (BERT's qkv split has no layer in
 * the zoo golden, so charging it anything would move every BERT row).
 *
 * runGraph() drives the schedule through SimSession::runInference, so
 * per-layer memoization, the thread-pool fan-out and the surrogate
 * tier all apply unchanged. Whole-graph totals are additionally
 * memoized in the session's SimCache under an "agr:"-prefixed content
 * hash that can never alias the "lay:"-suffixed per-layer keys.
 */

#ifndef ASCEND_GRAPH_LOWER_HH
#define ASCEND_GRAPH_LOWER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "model/network.hh"
#include "runtime/profile.hh"
#include "runtime/sim_session.hh"

namespace ascend {
namespace graph {

/** One lowered schedule entry: which node produced which layer. */
struct Step
{
    std::size_t node = 0; ///< index into Graph::nodes
    model::Layer layer;
};

/**
 * Lower @p g (validated here) to its layer schedule in deterministic
 * topological order. Structural nodes are elided.
 */
std::vector<Step> lower(const Graph &g);

/** lower() with a caller-chosen topological order (must be valid). */
std::vector<Step> lower(const Graph &g,
                        const std::vector<std::size_t> &order);

/**
 * The lowered schedule as a model::Network named after the graph —
 * the bridge into every layer-list consumer (SimSession,
 * BatchLatencyModel, training expansion, the SoC and baseline models).
 */
model::Network toNetwork(const Graph &g);

/** Result of running one graph through a session. */
struct GraphRun
{
    std::vector<Step> steps;          ///< the lowered schedule
    std::vector<runtime::LayerRun> runs; ///< per-layer results
    core::SimResult total;            ///< summed end-to-end result
};

/**
 * Lower @p g and simulate it on @p session. Per-layer results come
 * from the session's tiered runLayer (cache / surrogate / exact);
 * the summed total is additionally memoized under the graph's
 * content hash. Emits Domain::Graph tracer spans (one per lowered
 * step, cumulative cycle offsets) and charges the "graph ..."
 * runtime counters.
 */
GraphRun runGraph(const runtime::SimSession &session, const Graph &g);

/**
 * End-to-end cycles/energy for @p g on @p session, memoized under
 * graphCacheKey(). The fast path when per-step detail is not needed:
 * a warm cache answers without touching the schedule.
 */
core::SimResult graphResult(const runtime::SimSession &session,
                            const Graph &g);

/**
 * The whole-graph memo key: fingerprint(config) + fingerprint(options)
 * + fingerprint(resilience) + Graph::fingerprint(). Ends in
 * "agr:<hash>", so runtime::parseLayerFingerprint rejects it — graph
 * totals can never be mistaken for per-layer entries.
 */
std::string graphCacheKey(const runtime::SimSession &session,
                          const Graph &g);

} // namespace graph
} // namespace ascend

#endif // ASCEND_GRAPH_LOWER_HH
