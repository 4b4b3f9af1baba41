/**
 * @file
 * Graph-IR tests: builder wiring and lowering, the negative validation
 * paths (cycles, dangling edges, shape mismatches throw structured
 * Error), cache-key namespacing, lowering counters and the tracer
 * track. The zoo graphs' lowered layer lists and cycles are pinned by
 * the zoo golden in test_network_zoo.cc.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_session.hh"
#include "soc/training_soc.hh"

using namespace ascend;

namespace {

/** Expect fn() to throw Error with @p code, message containing @p hint. */
template <typename Fn>
void
expectError(Fn &&fn, ErrorCode code, const std::string &hint)
{
    try {
        fn();
        FAIL() << "expected ascend::Error [" << toString(code) << "]";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), code) << e.what();
        EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
            << "message '" << e.what() << "' lacks '" << hint << "'";
    }
}

runtime::SimSession
makeSession()
{
    return runtime::SimSession(
        soc::TrainingSoc().coreConfig(), {},
        std::make_shared<runtime::SimCache>());
}

/** A small valid diamond: input -> split -> (a, b) -> add. */
graph::Graph
diamond()
{
    graph::Graph g;
    g.name = "diamond";
    const graph::TensorId in = g.addInput("x", 4096, DataType::Fp16);
    const auto parts = g.addSplit("fork", in, 2);
    const graph::TensorId a = g.addLayer(
        model::Layer::activation("a", 2048, model::ActKind::Relu,
                                 DataType::Fp16),
        {parts[0]});
    const graph::TensorId b = g.addLayer(
        model::Layer::activation("b", 2048, model::ActKind::Gelu,
                                 DataType::Fp16),
        {parts[1]});
    g.markOutput(g.addResidualAdd("join", a, b));
    return g;
}

// ------------------------------------------------- structure

TEST(GraphIr, BuildersWireBackReferences)
{
    const graph::Graph g = diamond();
    EXPECT_NO_THROW(g.validate());
    EXPECT_EQ(g.nodes.size(), 4u);
    EXPECT_EQ(g.tensors.size(), 6u);
    // split parts name their producer and slots.
    EXPECT_EQ(g.tensors[1].producer, 0);
    EXPECT_EQ(g.tensors[2].producer, 0);
    EXPECT_EQ(g.tensors[2].producerSlot, 1u);
}

TEST(GraphIr, TopoOrderIsInsertionOrderForBuilderGraphs)
{
    const graph::Graph g = graph::zoo::resnet50Graph(1);
    const std::vector<std::size_t> order = g.topoOrder();
    ASSERT_EQ(order.size(), g.nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(GraphIr, StructuralNodesLowerToNothing)
{
    runtime::resetCounters();
    const std::vector<graph::Step> steps = graph::lower(diamond());
    // split is elided; relu, gelu and the residual add survive.
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_EQ(steps[0].layer.name, "a");
    EXPECT_EQ(steps[1].layer.name, "b");
    EXPECT_EQ(steps[2].layer.name, "join");
    EXPECT_EQ(steps[2].layer.kind, model::LayerKind::Elementwise);

    EXPECT_EQ(runtime::counterValue("graph lowerings"), 1u);
    EXPECT_EQ(runtime::counterValue("graph nodes"), 4u);
    EXPECT_EQ(runtime::counterValue("graph layers"), 3u);
    EXPECT_EQ(runtime::counterValue("graph structural"), 1u);
}

TEST(GraphIr, ResidualAddMatchesLegacyElementwiseShape)
{
    graph::Graph g;
    const graph::TensorId a = g.addInput("a", 1000, DataType::Fp32);
    const graph::TensorId b = g.addInput("b", 1000, DataType::Fp32);
    g.markOutput(g.addResidualAdd("sum", a, b));
    const std::vector<graph::Step> steps = graph::lower(g);
    ASSERT_EQ(steps.size(), 1u);
    const model::Layer want =
        model::Layer::elementwise("sum", 1000, DataType::Fp32);
    EXPECT_EQ(runtime::fingerprint(steps[0].layer),
              runtime::fingerprint(want));
}

// ---------------------------------------------- negative paths

TEST(GraphNegative, CycleThrowsGraphInvalid)
{
    graph::Graph g = diamond();
    // Rewire the fork's input to the join's output: a real cycle.
    g.nodes[0].inputs[0] = g.nodes[3].outputs[0];
    expectError([&] { g.validate(); }, ErrorCode::GraphInvalid,
                "cycle");
    expectError([&] { (void)g.topoOrder(); },
                ErrorCode::GraphInvalid, "cycle");
}

TEST(GraphNegative, DanglingEdgeThrowsGraphInvalid)
{
    graph::Graph g = diamond();
    g.nodes[1].inputs[0] = 999;
    expectError([&] { g.validate(); }, ErrorCode::GraphInvalid,
                "dangling");
}

TEST(GraphNegative, InconsistentBackReferenceThrows)
{
    graph::Graph g = diamond();
    g.tensors[g.nodes[1].outputs[0]].producer = 0;
    expectError([&] { g.validate(); }, ErrorCode::GraphInvalid,
                "producer");
}

TEST(GraphNegative, ShapeMismatchThrows)
{
    graph::Graph g = diamond();
    g.tensors[g.nodes[1].outputs[0]].elems = 7; // break relu output
    expectError([&] { g.validate(); }, ErrorCode::GraphShapeMismatch,
                "output");
}

TEST(GraphNegative, BuildersFailFast)
{
    graph::Graph g;
    const graph::TensorId a = g.addInput("a", 100, DataType::Fp16);
    const graph::TensorId b = g.addInput("b", 101, DataType::Fp16);
    expectError([&] { g.addResidualAdd("bad", a, b); },
                ErrorCode::GraphShapeMismatch, "residual");
    expectError([&] { graph::Graph h; h.addInput("z", 0,
                                                 DataType::Fp16); },
                ErrorCode::GraphShapeMismatch, "zero");
    expectError([&] { graph::Graph h;
                      const auto t = h.addInput("x", 10,
                                                DataType::Fp16);
                      h.addSplit("s", t, 3); },
                ErrorCode::GraphShapeMismatch, "divide");
    expectError(
        [&] {
            graph::Graph h;
            const auto t = h.addInput("x", 64, DataType::Fp16);
            // elementwise layers take no second operand.
            h.addLayer(model::Layer::elementwise("e", 64,
                                                 DataType::Fp16),
                       {t, t});
        },
        ErrorCode::GraphShapeMismatch, "second operand");
}

TEST(GraphNegative, EmptyGraphIsInvalid)
{
    graph::Graph g;
    g.name = "empty";
    expectError([&] { graph::lower(g); }, ErrorCode::GraphInvalid,
                "empty");
}

// ------------------------------------------------ cache keys

TEST(GraphCacheKeys, NeverAliasLayerFingerprints)
{
    const graph::Graph g = graph::zoo::gestureNetGraph(1);
    const runtime::SimSession session = makeSession();
    const std::string key = graph::graphCacheKey(session, g);
    EXPECT_EQ(key.find("agr:"), key.size() - 4 - 16);

    model::Layer out;
    EXPECT_FALSE(runtime::parseLayerFingerprint(key, out));
    EXPECT_FALSE(runtime::parseLayerFingerprint(g.fingerprint(), out));
}

TEST(GraphCacheKeys, FingerprintIgnoresNamesButNotShapes)
{
    graph::Graph a = diamond();
    graph::Graph b = diamond();
    b.name = "other";
    for (auto &t : b.tensors)
        t.name += "_renamed";
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    graph::Graph c = diamond();
    c.tensors[0].elems *= 2;
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(GraphCacheKeys, GraphResultIsMemoized)
{
    const graph::Graph g = graph::zoo::gestureNetGraph(2);
    const runtime::SimSession session = makeSession();
    const core::SimResult first = graph::graphResult(session, g);

    runtime::resetCounters();
    const core::SimResult again = graph::graphResult(session, g);
    EXPECT_EQ(again.totalCycles, first.totalCycles);
    EXPECT_EQ(runtime::counterValue("graph cache hits"), 1u);
    EXPECT_EQ(runtime::counterValue("graph lowerings"), 0u);
}

// --------------------------------------------------- tracer

TEST(GraphTracer, EmitsGraphDomainSpans)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.stop();
    tracer.start("");

    const runtime::SimSession session = makeSession();
    graph::runGraph(session, diamond());

    const std::string json = tracer.json();
    tracer.stop();
    EXPECT_NE(json.find("graph lowering (cycles)"), std::string::npos);
    EXPECT_NE(json.find("residual-add"), std::string::npos)
        << "expected per-step spans on the graph track";
}

} // namespace
