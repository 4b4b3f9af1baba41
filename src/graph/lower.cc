/**
 * @file
 * Graph lowering and graph-level memoized simulation.
 */

#include "graph/lower.hh"

#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"

namespace ascend {
namespace graph {

namespace {

/** Static tracer label for one lowered node. */
const char *
spanLabel(OpKind op)
{
    switch (op) {
      case OpKind::Layer:       return "layer";
      case OpKind::ResidualAdd: return "residual-add";
      case OpKind::Concat:      return "concat";
      case OpKind::Split:       return "split";
    }
    return "?";
}

/** lower() of an already validated @p g in @p order. */
std::vector<Step>
lowerValidated(const Graph &g, const std::vector<std::size_t> &order)
{
    std::vector<Step> steps;
    steps.reserve(order.size());
    for (const std::size_t ni : order) {
        const Node &n = g.nodes.at(ni);
        switch (n.op) {
          case OpKind::Layer:
            steps.push_back({ni, n.layer});
            break;
          case OpKind::ResidualAdd: {
            // The exact shape of the ".add" layers frozen in the zoo
            // golden (tests/golden/zoo_networks.txt).
            const Tensor &out = g.tensors[n.outputs[0]];
            steps.push_back({ni, model::Layer::elementwise(
                                     n.name, out.elems, out.dtype)});
            break;
          }
          case OpKind::Concat:
          case OpKind::Split:
            // Pure wiring: the zoo golden has no layer for these
            // (BERT's qkv split), so they must cost zero cycles.
            break;
        }
    }
    // Sim-structure counters: deterministic at any thread count.
    using runtime::CounterKind;
    constexpr auto det = runtime::Determinism::Deterministic;
    static runtime::Counter &lowerings =
        runtime::counter("graph lowerings", CounterKind::Sum, det);
    static runtime::Counter &nodes =
        runtime::counter("graph nodes", CounterKind::Sum, det);
    static runtime::Counter &layers =
        runtime::counter("graph layers", CounterKind::Sum, det);
    static runtime::Counter &structural =
        runtime::counter("graph structural", CounterKind::Sum, det);
    lowerings.charge(1);
    nodes.charge(order.size());
    layers.charge(steps.size());
    structural.charge(order.size() - steps.size());
    return steps;
}

/** runGraph, memoizing the total under @p key (graphCacheKey). */
GraphRun
runGraphKeyed(const runtime::SimSession &session, const Graph &g,
              const std::string &key)
{
    GraphRun run;
    run.steps = lower(g);
    run.runs.resize(run.steps.size());
    for (std::size_t i = 0; i < run.steps.size(); ++i)
        run.runs[i].layer = run.steps[i].layer;
    session.runBatch(run.runs);

    for (const runtime::LayerRun &lr : run.runs)
        run.total.accumulate(lr.result);
    session.cache().insert(key, run.total);

    if (obs::Tracer *tr = obs::Tracer::current()) {
        Cycles at = 0;
        for (std::size_t i = 0; i < run.runs.size(); ++i) {
            const Cycles dur = run.runs[i].result.totalCycles;
            tr->span(obs::Domain::Graph, 1,
                     spanLabel(g.nodes[run.steps[i].node].op), at,
                     dur, run.runs[i].result.extBytes());
            at += dur;
        }
    }
    return run;
}

} // namespace

std::vector<Step>
lower(const Graph &g)
{
    return lowerValidated(g, g.validate());
}

std::vector<Step>
lower(const Graph &g, const std::vector<std::size_t> &order)
{
    g.validate();
    return lowerValidated(g, order);
}

model::Network
toNetwork(const Graph &g)
{
    model::Network net;
    net.name = g.name;
    for (Step &s : lower(g))
        net.add(std::move(s.layer));
    return net;
}

std::string
graphCacheKey(const runtime::SimSession &session, const Graph &g)
{
    return session.sessionKey() + g.fingerprint();
}

GraphRun
runGraph(const runtime::SimSession &session, const Graph &g)
{
    return runGraphKeyed(session, g, graphCacheKey(session, g));
}

core::SimResult
graphResult(const runtime::SimSession &session, const Graph &g)
{
    const std::string key = graphCacheKey(session, g);
    core::SimResult cached;
    if (session.cache().lookup(key, cached)) {
        // Racy, like the SimCache counters: concurrent misses on one
        // graph race to memoize it.
        static runtime::Counter &hits = runtime::counter(
            "graph cache hits", runtime::CounterKind::Sum,
            runtime::Determinism::Racy);
        hits.charge(1);
        return cached;
    }
    return runGraphKeyed(session, g, key).total;
}

} // namespace graph
} // namespace ascend
