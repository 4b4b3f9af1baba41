/**
 * @file
 * Property tests for the graph IR: importer round-trips exactly
 * (parse(print(g)) == g, tensor ids included), lowering totals are
 * invariant under any valid topological order, and randomized DAGs
 * survive the full build -> validate -> print -> parse -> lower
 * pipeline (run under the sanitizer CI jobs, this doubles as the
 * fuzz harness ISSUE.md asks for).
 */

#include <algorithm>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "graph/agr.hh"
#include "graph/decoder.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_cache.hh"

using namespace ascend;

namespace {

/** Expect fn() to throw Error with @p code. */
template <typename Fn>
void
expectError(Fn &&fn, ErrorCode code)
{
    try {
        fn();
        FAIL() << "expected ascend::Error [" << toString(code) << "]";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), code) << e.what();
    }
}

void
expectRoundTrips(const graph::Graph &g)
{
    const std::string text = graph::printAgr(g);
    const graph::Graph back = graph::parseAgr(text);
    EXPECT_TRUE(back == g) << g.name << " did not round-trip";
    // And the text itself is a fixed point.
    EXPECT_EQ(graph::printAgr(back), text) << g.name;
}

/**
 * Kahn's algorithm with a MAX-heap: a valid topological order that
 * differs from the builder's insertion order whenever the DAG has
 * any parallelism — the adversarial schedule for invariance tests.
 */
std::vector<std::size_t>
reverseGreedyTopo(const graph::Graph &g)
{
    std::vector<unsigned> indegree(g.nodes.size(), 0);
    std::vector<std::vector<std::size_t>> consumers(g.nodes.size());
    for (std::size_t ni = 0; ni < g.nodes.size(); ++ni)
        for (const graph::TensorId t : g.nodes[ni].inputs)
            if (g.tensors[t].producer >= 0) {
                ++indegree[ni];
                consumers[std::size_t(g.tensors[t].producer)]
                    .push_back(ni);
            }
    std::priority_queue<std::size_t> ready;
    for (std::size_t ni = 0; ni < g.nodes.size(); ++ni)
        if (indegree[ni] == 0)
            ready.push(ni);
    std::vector<std::size_t> order;
    while (!ready.empty()) {
        const std::size_t ni = ready.top();
        ready.pop();
        order.push_back(ni);
        for (const std::size_t c : consumers[ni])
            if (--indegree[c] == 0)
                ready.push(c);
    }
    return order;
}

/** Sorted shape fingerprints of a lowered schedule. */
std::vector<std::string>
loweredMultiset(const std::vector<graph::Step> &steps)
{
    std::vector<std::string> prints;
    prints.reserve(steps.size());
    for (const graph::Step &s : steps)
        prints.push_back(runtime::fingerprint(s.layer));
    std::sort(prints.begin(), prints.end());
    return prints;
}

/**
 * A random but always-valid DAG: every mutation the generator knows
 * preserves the builder invariants, so validate() must accept and
 * the round trip must be exact for any seed.
 */
graph::Graph
randomDag(std::mt19937 &rng)
{
    graph::Graph g;
    g.name = "fuzz";
    auto pick = [&](std::uint64_t n) {
        return std::uniform_int_distribution<std::uint64_t>(
            0, n - 1)(rng);
    };

    std::vector<graph::TensorId> pool;
    const unsigned inputs = 1 + unsigned(pick(3));
    for (unsigned i = 0; i < inputs; ++i)
        pool.push_back(g.addInput("in" + std::to_string(i),
                                  1 + pick(4096), DataType::Fp16));

    const unsigned ops = 5 + unsigned(pick(20));
    for (unsigned i = 0; i < ops; ++i) {
        const std::string nm = "n" + std::to_string(i);
        const graph::TensorId t = pool[pick(pool.size())];
        const std::uint64_t elems = g.tensors[t].elems;
        switch (pick(6)) {
          case 0:
            pool.push_back(g.addLayer(
                model::Layer::activation(nm, elems,
                                         model::ActKind::Relu,
                                         DataType::Fp16),
                {t}));
            break;
          case 1:
            pool.push_back(g.addLayer(
                model::Layer::elementwise(nm, elems, DataType::Fp16),
                {t}));
            break;
          case 2:
            pool.push_back(g.addLayer(
                model::Layer::layerNorm(nm, elems, 1, DataType::Fp16),
                {t}));
            break;
          case 3: {
            // Residual: manufacture an equal-shape sibling first.
            const graph::TensorId sib = g.addLayer(
                model::Layer::activation(nm + ".sib", elems,
                                         model::ActKind::Gelu,
                                         DataType::Fp16),
                {t});
            pool.push_back(g.addResidualAdd(nm, t, sib));
            break;
          }
          case 4: {
            const graph::TensorId other = pool[pick(pool.size())];
            pool.push_back(g.addConcat(nm, {t, other}));
            break;
          }
          case 5: {
            if (elems > 1) {
                const std::uint64_t cut = 1 + pick(elems - 1);
                const auto parts =
                    g.addSplit(nm, t, {cut, elems - cut});
                pool.push_back(parts[0]);
                pool.push_back(parts[1]);
            } else {
                pool.push_back(g.addLayer(
                    model::Layer::elementwise(nm, elems,
                                              DataType::Fp16),
                    {t}));
            }
            break;
          }
        }
    }
    const unsigned outs = 1 + unsigned(pick(3));
    for (unsigned i = 0; i < outs; ++i)
        g.markOutput(pool[pick(pool.size())]);
    return g;
}

// ------------------------------------------------- round trips

TEST(AgrRoundTrip, ZooGraphs)
{
    expectRoundTrips(graph::zoo::resnet50Graph(1));
    expectRoundTrips(graph::zoo::mobilenetV2Graph(1));
    expectRoundTrips(graph::zoo::bertBaseGraph(1, 128));
    expectRoundTrips(graph::zoo::vgg16Graph(1));
    expectRoundTrips(graph::zoo::gestureNetGraph(1));
}

TEST(AgrRoundTrip, DecoderGraphs)
{
    graph::DecoderConfig cfg;
    expectRoundTrips(graph::prefillGraph(cfg, 128));
    expectRoundTrips(graph::decodeGraph(cfg, 129));
    expectRoundTrips(graph::decodeGraph(cfg, 1)); // no cache inputs
}

TEST(AgrRoundTrip, LayerFieldsSurviveIncludingOverrides)
{
    graph::Graph g;
    g.name = "fields";
    model::Layer conv = model::Layer::conv2d(
        "c", 2, 3, 32, 32, 8, 3, 2, 1, DataType::Int8);
    conv.inputBytesOverride = 12345;
    conv.cvPasses = 1.5;
    const graph::TensorId in =
        g.addInput("x", std::uint64_t(2) * 3 * 32 * 32,
                   DataType::Int8);
    g.markOutput(g.addLayer(conv, {in}));
    expectRoundTrips(g);

    const graph::Graph back = graph::parseAgr(graph::printAgr(g));
    EXPECT_EQ(back.nodes[0].layer.inputBytesOverride, 12345u);
    EXPECT_DOUBLE_EQ(back.nodes[0].layer.cvPasses, 1.5);
}

TEST(AgrRoundTrip, CountersCharge)
{
    runtime::resetCounters();
    expectRoundTrips(graph::zoo::gestureNetGraph(1));
    EXPECT_EQ(runtime::counterValue("graph agr parsed"), 1u);
    // round trip prints twice
    EXPECT_EQ(runtime::counterValue("graph agr printed"), 2u);
}

// ------------------------------------------------ parse errors

TEST(AgrParse, RejectsMalformedText)
{
    const auto bad = [](const std::string &text) {
        expectError([&] { graph::parseAgr(text); },
                    ErrorCode::ConfigParse);
    };
    bad("");
    bad("agr 2\ngraph g\nend\n");
    bad("agr 1\nnope\n");
    bad("agr 1\ngraph g\nwat x\nend\n");
    bad("agr 1\ngraph g\ntensor t xyz fp16 input\nend\n");
    bad("agr 1\ngraph g\ntensor t 8 fp19 input\nend\n");
    bad("agr 1\ngraph g\ntensor t 8 fp16 input\n"
        "tensor t 8 fp16 input\nend\n");           // duplicate name
    bad("agr 1\ngraph g\nnode n add in a,b\nend\n"); // undefined refs
    bad("agr 1\ngraph g\ntensor t 8 fp16 input\n"
        "node n layer elementwise in t bogus=1\nend\n");
    bad("agr 1\ngraph g\ntensor t 8 fp16 input\n"); // missing end
}

TEST(AgrParse, WellFormedButBrokenGraphFailsValidation)
{
    // Syntactically fine; tensor claims a producer that never runs
    // before it — a cycle between the two nodes.
    const std::string text =
        "agr 1\n"
        "graph g\n"
        "tensor a 8 fp16 from 1.0\n"
        "tensor b 8 fp16 from 0.0\n"
        "node n0 layer elementwise in a el=8\n"
        "node n1 layer elementwise in b el=8\n"
        "end\n";
    expectError([&] { graph::parseAgr(text); },
                ErrorCode::GraphInvalid);
}

// --------------------------------------- topo-order invariance

TEST(TopoInvariance, LoweredTotalsMatchForAnyValidOrder)
{
    // Both of these have real scheduling parallelism (the downsample
    // branch; the parallel K/V appends), so the adversarial order is
    // genuinely different. Chain-scheduled graphs (VGG, BERT) have a
    // unique topological order and are covered by the fuzz test.
    const graph::Graph graphs[] = {
        graph::zoo::resnet50Graph(1),
        graph::decodeGraph(graph::DecoderConfig{}, 65),
    };
    for (const graph::Graph &g : graphs) {
        const std::vector<std::size_t> alt = reverseGreedyTopo(g);
        ASSERT_EQ(alt.size(), g.nodes.size()) << g.name;
        // The adversarial order really is different for DAGs with
        // branches (all three of these have them)...
        EXPECT_NE(alt, g.topoOrder()) << g.name;
        // ...yet lowers to the same layer multiset, so any summed
        // quantity (cycles, flops, energy) is identical.
        EXPECT_EQ(loweredMultiset(graph::lower(g, alt)),
                  loweredMultiset(graph::lower(g)))
            << g.name;
    }
}

TEST(TopoInvariance, FingerprintIsOrderIndependentForSameGraph)
{
    // Same graph object, both orders: one fingerprint (it hashes
    // structure, not schedule).
    const graph::Graph g = graph::zoo::mobilenetV2Graph(1);
    const std::string fp = g.fingerprint();
    (void)graph::lower(g, reverseGreedyTopo(g));
    EXPECT_EQ(g.fingerprint(), fp);
}

// -------------------------------------------------- fuzz

TEST(GraphFuzz, RandomDagsSurviveThePipeline)
{
    std::mt19937 rng(0xa5ce9d);
    for (int iter = 0; iter < 60; ++iter) {
        const graph::Graph g = randomDag(rng);
        ASSERT_NO_THROW(g.validate()) << "iter " << iter;

        // Round trip is exact.
        const graph::Graph back = graph::parseAgr(graph::printAgr(g));
        ASSERT_TRUE(back == g) << "iter " << iter;

        // Topological order is a permutation that respects edges.
        const std::vector<std::size_t> order = g.topoOrder();
        std::vector<std::size_t> position(g.nodes.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            position[order[i]] = i;
        for (std::size_t ni = 0; ni < g.nodes.size(); ++ni) {
            for (const graph::TensorId t : g.nodes[ni].inputs) {
                if (g.tensors[t].producer >= 0) {
                    ASSERT_LT(
                        position[std::size_t(g.tensors[t].producer)],
                        position[ni])
                        << "iter " << iter;
                }
            }
        }

        // Lowering agrees across schedules.
        ASSERT_EQ(loweredMultiset(
                      graph::lower(g, reverseGreedyTopo(g))),
                  loweredMultiset(graph::lower(g)))
            << "iter " << iter;

        // Renaming everything never moves the structural hash.
        graph::Graph renamed = back;
        for (auto &t : renamed.tensors)
            t.name = "x" + t.name;
        for (auto &n : renamed.nodes)
            n.name = "y" + n.name;
        EXPECT_EQ(renamed.fingerprint(), g.fingerprint())
            << "iter " << iter;
    }
}

TEST(GraphFuzz, CorruptedRandomDagsFailClosed)
{
    std::mt19937 rng(1234);
    for (int iter = 0; iter < 30; ++iter) {
        graph::Graph g = randomDag(rng);
        const std::size_t ni =
            std::uniform_int_distribution<std::size_t>(
                0, g.nodes.size() - 1)(rng);
        switch (iter % 3) {
          case 0: // dangling edge
            g.nodes[ni].inputs.assign(1, graph::TensorId(100000));
            break;
          case 1: // broken back-reference
            g.tensors[g.nodes[ni].outputs[0]].producerSlot = 77;
            break;
          case 2: // zero-volume tensor
            g.tensors[g.nodes[ni].outputs[0]].elems = 0;
            break;
        }
        EXPECT_THROW(g.validate(), Error) << "iter " << iter;
    }
}

} // namespace
