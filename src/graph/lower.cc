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

} // namespace

std::vector<Step>
lower(const Graph &g)
{
    return lower(g, g.topoOrder());
}

std::vector<Step>
lower(const Graph &g, const std::vector<std::size_t> &order)
{
    g.validate();
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
    return runtime::fingerprint(session.config()) +
           runtime::fingerprint(session.options()) +
           runtime::fingerprint(session.resilience()) +
           g.fingerprint();
}

GraphRun
runGraph(const runtime::SimSession &session, const Graph &g)
{
    GraphRun run;
    run.steps = lower(g);

    model::Network net;
    net.name = g.name;
    for (const Step &s : run.steps)
        net.add(s.layer);
    run.runs = session.runInference(net);

    for (const runtime::LayerRun &lr : run.runs)
        run.total.accumulate(lr.result);
    session.cache().insert(graphCacheKey(session, g), run.total);

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
    return runGraph(session, g).total;
}

} // namespace graph
} // namespace ascend
