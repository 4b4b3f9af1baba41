/**
 * @file
 * Graph-IR tests: builder wiring and lowering, the negative validation
 * paths (cycles, dangling edges, shape mismatches throw structured
 * Error), cache-key namespacing, lowering counters and the tracer
 * track. The zoo graphs' lowered layer lists and cycles are pinned by
 * the zoo golden in test_network_zoo.cc.
 */

#include <cmath>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_cache.hh"
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

/**
 * A graph of one 3x3 pad-1 conv on an 8x8 input, built after
 * @p edit(layer): on that input a kernel of up to 10 fits.
 */
template <typename Edit>
graph::Graph
convGraph(Edit edit)
{
    model::Layer l = model::Layer::conv2d("c", 1, 3, 8, 8, 4, 3, 1, 1);
    edit(l);
    graph::Graph g;
    g.addLayer(l, {g.addInput("x", 3 * 8 * 8, DataType::Fp16)});
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

    // A window edited after the build is refused before validate()
    // derives an output volume from it.
    graph::Graph c = convGraph([](model::Layer &) {});
    c.nodes[0].layer.strideH = 0;
    expectError([&] { c.validate(); }, ErrorCode::GraphShapeMismatch,
                "stride must be positive");
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

TEST(AgrParse, DegenerateWindowFailsTheShapeCheck)
{
    // A window with no output shape is refused before addLayer
    // derives the output tensor from it; a kernel that just fits the
    // padded input gets past the check.
    for (auto field : {&model::Layer::strideH, &model::Layer::strideW})
        expectError(
            [&] { convGraph([&](model::Layer &l) { l.*field = 0; }); },
            ErrorCode::GraphShapeMismatch, "stride must be positive");
    for (auto field : {&model::Layer::kernelH, &model::Layer::kernelW})
        expectError(
            [&] { convGraph([&](model::Layer &l) { l.*field = 11; }); },
            ErrorCode::GraphShapeMismatch,
            "kernel is larger than its padded input");
    EXPECT_NO_THROW(convGraph([](model::Layer &l) { l.kernelH = 10; }));
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
    EXPECT_EQ(key.find("lay:"), std::string::npos);
    EXPECT_EQ(g.fingerprint().find("lay:"), std::string::npos);
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

/** Move @p v to another value with another hash word. */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_enum_v<T>)
        v = T(unsigned(v) ^ 1);
    else if constexpr (std::is_floating_point_v<T>)
        v += 1 + std::abs(v);
    else
        ++v;
}

TEST(LayerKeys, FingerprintSeesEveryKeyedField)
{
    const model::Layer base =
        model::Layer::conv2d("c", 2, 3, 33, 31, 16, 3, 1, 1);
    const std::string print = runtime::fingerprint(base);
    std::size_t fields = 0;
    model::forEachField([&](const char *, const auto &) { ++fields; },
                        base);
    EXPECT_GT(fields, 20u);
    for (std::size_t i = 0; i < fields; ++i) {
        model::Layer l = base;
        std::size_t j = 0;
        std::string name;
        model::forEachField(
            [&](const char *k, auto &v) {
                if (j++ == i) {
                    perturb(v);
                    name = k;
                }
            },
            l);
        EXPECT_NE(runtime::fingerprint(l), print) << "misses " << name;
    }
    model::Layer kind = base;
    perturb(kind.kind);
    EXPECT_NE(runtime::fingerprint(kind), print) << "misses kind";
    // The name is not keyed: equal shapes share one entry.
    model::Layer renamed = base;
    renamed.name = "other";
    EXPECT_EQ(runtime::fingerprint(renamed), print);
}

TEST(GraphCacheKeys, FingerprintSeesEveryKeyedField)
{
    const graph::Graph base = diamond();
    const std::string print = base.fingerprint();
    // The fingerprint reads fields only, so an edit need not leave a
    // valid graph.
    auto expectSeen = [&](const std::string &what, auto &&edit) {
        graph::Graph g = base;
        edit(g);
        EXPECT_NE(g.fingerprint(), print) << "misses " << what;
    };

    // Every listed field of one layer node, then its kind.
    const std::size_t a = 1;
    ASSERT_EQ(base.nodes[a].op, graph::OpKind::Layer);
    std::size_t fields = 0;
    model::forEachField([&](const char *, const auto &) { ++fields; },
                        base.nodes[a].layer);
    EXPECT_GT(fields, 20u);
    for (std::size_t i = 0; i < fields; ++i) {
        graph::Graph g = base;
        std::size_t j = 0;
        std::string name;
        model::forEachField(
            [&](const char *k, auto &v) {
                if (j++ == i) {
                    perturb(v);
                    name = k;
                }
            },
            g.nodes[a].layer);
        EXPECT_NE(g.fingerprint(), print) << "misses layer field " << name;
    }
    expectSeen("layer kind",
               [&](graph::Graph &g) { perturb(g.nodes[a].layer.kind); });

    for (std::size_t t = 0; t < base.tensors.size(); ++t) {
        const std::string at = " of tensor " + std::to_string(t);
        expectSeen("elems" + at,
                   [&](graph::Graph &g) { perturb(g.tensors[t].elems); });
        expectSeen("dtype" + at,
                   [&](graph::Graph &g) { perturb(g.tensors[t].dtype); });
        expectSeen("producer" + at, [&](graph::Graph &g) {
            perturb(g.tensors[t].producer);
        });
        expectSeen("slot" + at, [&](graph::Graph &g) {
            perturb(g.tensors[t].producerSlot);
        });
    }
    expectSeen("node op", [](graph::Graph &g) {
        g.nodes.back().op = graph::OpKind::Concat;
    });
    expectSeen("graph outputs",
               [](graph::Graph &g) { g.outputs.push_back(0); });

    // x -> relu -> add(relu, x). Moving the add's first input to the
    // end of the relu's inputs leaves the flat word stream of edge
    // ids, output counts and ops unchanged: only the input list
    // lengths tell the two apart.
    graph::Graph res;
    const graph::TensorId x = res.addInput("x", 64, DataType::Fp16);
    const graph::TensorId r = res.addLayer(
        model::Layer::activation("r", 64, model::ActKind::Relu,
                                 DataType::Fp16),
        {x});
    res.markOutput(res.addResidualAdd("add", r, x));
    graph::Graph moved = res;
    moved.nodes[0].inputs.push_back(moved.nodes[1].inputs.front());
    moved.nodes[1].inputs.erase(moved.nodes[1].inputs.begin());
    EXPECT_NE(moved.fingerprint(), res.fingerprint());

    // Names are cosmetic.
    graph::Graph renamed = base;
    renamed.name += "_renamed";
    for (graph::Tensor &t : renamed.tensors)
        t.name += "_renamed";
    for (graph::Node &n : renamed.nodes) {
        n.name += "_renamed";
        n.layer.name += "_renamed";
    }
    EXPECT_EQ(renamed.fingerprint(), print);

    // The key is the session's prefix, unchanged, then the graph's.
    const runtime::SimSession session = makeSession();
    EXPECT_EQ(graph::graphCacheKey(session, base),
              session.sessionKey() + print);
    EXPECT_EQ(session.sessionKey(),
              runtime::fingerprint(session.config()) +
                  runtime::fingerprint(session.options()) +
                  runtime::fingerprint(session.resilience()));
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
