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
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "arch/core_config.hh"
#include "cluster/elastic_run.hh"
#include "common/codec.hh"
#include "common/error.hh"
#include "common/field.hh"
#include "graph/agr.hh"
#include "graph/decoder.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "resilience/fault_domain.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "serving/fleet.hh"

#include "golden_test.hh"

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

/** The text of a one-conv graph (8x8 input, pad 1), @p keys appended
 *  to its node line. */
std::string
convAgr(const std::string &keys)
{
    graph::Graph g;
    g.name = "conv";
    const graph::TensorId in = g.addInput("x", 3 * 8 * 8, DataType::Fp16);
    g.markOutput(g.addLayer(
        model::Layer::conv2d("c", 1, 3, 8, 8, 4, 3, 1, 1), {in}));
    std::string text = graph::printAgr(g);
    return text.insert(text.find("\noutput"), keys);
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
    // A value its field's type cannot hold is refused, not truncated.
    bad(convAgr(" b=4294967297"));
    bad(convAgr(" b=-1"));
    bad(convAgr(" el=18446744073709551616"));
    bad(convAgr(" cvp=inf"));
    bad(convAgr(" act=tanh"));
    bad(convAgr(" dt=fp8"));
    bad("agr 1\ngraph g\ntensor t 8 fp16 from 4294967296.0\nend\n");
    bad("agr 1\ngraph g\ntensor t 8 fp16 from 3000000000.0\nend\n");
}

TEST(AgrParse, DegenerateWindowFailsTheShapeCheck)
{
    // Caught before any output volume is derived from the window; a
    // kernel that just fits the padded input gets past the check (to
    // the output-volume one, since the conv's output shrinks).
    const auto refusal = [](const char *keys) -> std::string {
        try {
            graph::parseAgr(convAgr(keys));
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::GraphShapeMismatch) << keys;
            return e.what();
        }
        return "";
    };
    for (const char *keys : {" sh=0", " sw=0"})
        EXPECT_NE(refusal(keys).find("stride"), std::string::npos);
    for (const char *keys : {" kh=11", " kw=11"})
        EXPECT_NE(refusal(keys).find("kernel"), std::string::npos);
    EXPECT_NE(refusal(" kh=10").find("output"), std::string::npos);
    EXPECT_EQ(refusal(""), "");
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

// ------------------------------------------------ record keys

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
hashText(const std::string &text)
{
    return fnv1a(text.data(), text.size());
}

/**
 * One golden row of graph @p g: the hash of its .agr text, the hash
 * of every lowered layer's SimCache fingerprint, and (when
 * @p run_outcomes) the hash of the surrogate outcome sequence of a
 * fresh-cache, surrogate-on session walking those layers. The spot
 * check samples by the surrogate's shape hash, so the outcome column
 * pins that hash too; a short spot-check period makes every
 * predicted layer carry its hash modulo the period into the row.
 */
std::string
recordKeysRow(const std::string &label, const graph::Graph &g,
              bool run_outcomes = true)
{
    const model::Network net = graph::toNetwork(g);
    std::uint64_t lay = kFnv1aBasis;
    for (const model::Layer &l : net.layers) {
        const std::string fp = runtime::fingerprint(l);
        lay = fnv1a(fp.data(), fp.size(), lay);
    }
    std::string outcomes = "-";
    if (run_outcomes) {
        surrogate::SurrogateOptions sur;
        sur.enabled = true;
        sur.spotCheckPeriod = 3;
        const runtime::SimSession session(
            arch::makeCoreConfig(arch::CoreVersion::Max), {},
            std::make_shared<runtime::SimCache>(), {}, sur);
        std::string seq;
        for (const model::Layer &l : net.layers) {
            surrogate::Outcome o = surrogate::Outcome::Disabled;
            (void)session.runLayer(l, &o);
            seq += char('0' + unsigned(o));
        }
        outcomes = hex64(hashText(seq));
    }
    return label + " layers=" + std::to_string(net.layers.size()) +
           " agr=" + hex64(hashText(graph::printAgr(g))) +
           " lay=" + hex64(lay) + " outcomes=" + outcomes;
}

/**
 * A one-layer graph whose layer sets every keyed field off its
 * default, so the .agr and fingerprint columns cover fields no zoo
 * graph touches (fused passes, byte overrides, activation).
 */
graph::Graph
everyFieldGraph()
{
    model::Layer l = model::Layer::conv2d("c", 2, 3, 33, 31, 8, 3, 2,
                                          1, DataType::Int8);
    l.kernelW = 5;
    l.strideW = 1;
    l.padW = 2;
    l.gemmM = 7;
    l.gemmK = 11;
    l.gemmN = 13;
    l.matmulCount = 3;
    l.elems = 17;
    l.rowLen = 19;
    l.cvPasses = 1.0000001;
    l.fusedEvictPasses = 2.5;
    l.act = model::ActKind::Swish;
    l.inputBytesOverride = 12345;
    l.outputBytesOverride = 67890;
    graph::Graph g;
    g.name = "every-field";
    const graph::TensorId in =
        g.addInput("x", std::uint64_t(2) * 3 * 33 * 31, DataType::Int8);
    g.markOutput(g.addLayer(l, {in}));
    return g;
}

/**
 * Every keyed byte of the layer and core records is frozen in
 * tests/golden/record_keys.txt: the .agr text, the SimCache key of
 * every lowered layer, the surrogate's spot-check subset, and the key
 * of every core preset. Regenerate only for an intended key change
 * (which also orphans every on-disk cache) with
 *     ASCEND_UPDATE_GOLDEN=1 ./build/tests/test_graph_properties
 */
TEST(RecordKeys, MatchGolden)
{
    namespace zoo = graph::zoo;
    std::string rows =
        "# .agr, layer-fingerprint and surrogate-outcome hashes per "
        "graph, and\n"
        "# the fingerprint of every core preset "
        "(tests/test_graph_properties.cc).\n"
        "# Regenerate: ASCEND_UPDATE_GOLDEN=1 "
        "./build/tests/test_graph_properties\n";
    rows += recordKeysRow("resnet50-b1", zoo::resnet50Graph(1)) + "\n";
    rows += recordKeysRow("resnet50-b4-int8",
                          zoo::resnet50Graph(4, DataType::Int8)) +
            "\n";
    rows += recordKeysRow("mobilenetv2-b1", zoo::mobilenetV2Graph(1)) +
            "\n";
    rows += recordKeysRow("vgg16-b1", zoo::vgg16Graph(1)) + "\n";
    rows += recordKeysRow("gesturenet-b1", zoo::gestureNetGraph(1)) +
            "\n";
    rows += recordKeysRow("bert-base-b1-s128", zoo::bertBaseGraph(1, 128)) +
            "\n";
    rows += recordKeysRow("bert-large-b1-s128",
                          zoo::bertLargeGraph(1, 128)) +
            "\n";
    for (const unsigned batch : {1u, 8u}) {
        graph::DecoderConfig cfg;
        cfg.batch = batch;
        const std::string b = "-b" + std::to_string(batch);
        rows += recordKeysRow("prefill" + b + "-p128",
                              graph::prefillGraph(cfg, 128)) +
                "\n";
        for (const unsigned ctx : {1u, 129u, 1024u})
            rows += recordKeysRow("decode" + b + "-c" +
                                      std::to_string(ctx),
                                  graph::decodeGraph(cfg, ctx)) +
                    "\n";
    }
    rows += recordKeysRow("every-field", everyFieldGraph(), false) + "\n";
    for (const arch::CoreVersion v :
         {arch::CoreVersion::Tiny, arch::CoreVersion::Lite,
          arch::CoreVersion::Mini, arch::CoreVersion::Std,
          arch::CoreVersion::Max})
        rows += std::string("core ") + arch::toString(v) + " " +
                runtime::fingerprint(arch::makeCoreConfig(v)) + "\n";

    const std::string path =
        std::string(ASCEND_GOLDEN_DIR) + "/record_keys.txt";
    expectGolden(path, rows);
}

/** Move @p v to another value with another key word. */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        v += "x";
    else if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = T(unsigned(v) ^ 1);
    else if constexpr (std::is_floating_point_v<T>)
        v += 1 + std::abs(v);
    else
        ++v;
}

/**
 * Calls f(key, field) for every scalar field of @p rec, descending
 * into a nested record through its own list.
 */
template <typename F, typename R>
void
forEachLeafField(F &&f, R &rec)
{
    forEachField(
        [&f](FieldName name, auto &field) {
            if constexpr (FieldRecord<
                              std::remove_reference_t<decltype(field)>>)
                forEachLeafField(f, field);
            else
                f(name, field);
        },
        rec);
}

/** No list of @p rec, nested ones included, names a key twice. */
template <typename R>
void
expectUniqueKeys(const R &rec, const std::string &what)
{
    std::set<std::string> keys;
    forEachField(
        [&](const char *key, const auto &field) {
            EXPECT_TRUE(keys.insert(key).second)
                << what << " lists " << key << " twice";
            if constexpr (FieldRecord<
                              std::remove_reference_t<decltype(field)>>)
                expectUniqueKeys(field, what + "." + key);
        },
        rec);
}

/**
 * Each leaf field of @p base, perturbed alone, changes @p key, the
 * fingerprint or run identity the record's list feeds.
 */
template <typename R, typename Key>
void
expectEveryFieldKeyed(const R &base, const Key &key, const char *what)
{
    expectUniqueKeys(base, what);
    std::size_t fields = 0;
    forEachLeafField([&](const char *, const auto &) { ++fields; }, base);
    EXPECT_GT(fields, 1u) << what;
    const std::string baseKey = key(base);
    for (std::size_t i = 0; i < fields; ++i) {
        R rec = base;
        std::size_t j = 0;
        std::string name;
        forEachLeafField(
            [&](const char *k, auto &v) {
                if (j++ == i) {
                    perturb(v);
                    name = k;
                }
            },
            rec);
        EXPECT_NE(key(rec), baseKey) << what << " drops " << name;
    }
}

TEST(RecordKeys, EveryListedFieldIsKeyed)
{
    expectEveryFieldKeyed(
        compiler::CompileOptions{},
        [](const auto &o) { return runtime::fingerprint(o); },
        "CompileOptions");
    resilience::ResilienceOptions res;
    res.scenario = "s";
    expectEveryFieldKeyed(
        res, [](const auto &o) { return runtime::fingerprint(o); },
        "ResilienceOptions");
    expectEveryFieldKeyed(
        resilience::CorrelatedFaultSpec{},
        [](const auto &s) { return resilience::fingerprint(s); },
        "CorrelatedFaultSpec");
    expectEveryFieldKeyed(
        serving::QosTier{},
        [](const serving::QosTier &t) {
            return serving::fingerprint(std::vector<serving::QosTier>{t});
        },
        "QosTier");

    const std::vector<serving::QosTier> tiers(1);
    const std::vector<serving::Request> arrivals = {{0, 0.0, 0}};
    const serving::BatchLatencyModel model =
        serving::BatchLatencyModel::linear(0.01, 0.001, 4);
    const resilience::FaultSchedule faults;
    expectEveryFieldKeyed(
        serving::FleetOptions{},
        [&](const serving::FleetOptions &o) {
            return serving::runFingerprint(arrivals, tiers, model, faults,
                                           o);
        },
        "FleetOptions");

    // The elastic run identity walks four records.
    const cluster::TrainingJob job;
    const cluster::ClusterConfig cl;
    const resilience::RetryPolicy retry;
    const cluster::ElasticOptions opt;
    const auto elastic = [&](const cluster::TrainingJob &j,
                             const cluster::ClusterConfig &c,
                             const resilience::RetryPolicy &r,
                             const cluster::ElasticOptions &o) {
        return cluster::runFingerprint(
            j, c, 64, 10, faults, r,
            resilience::DegradedMode::ContinueDegraded, o);
    };
    expectEveryFieldKeyed(
        job, [&](const auto &j) { return elastic(j, cl, retry, opt); },
        "TrainingJob");
    expectEveryFieldKeyed(
        cl, [&](const auto &c) { return elastic(job, c, retry, opt); },
        "ClusterConfig");
    expectEveryFieldKeyed(
        retry, [&](const auto &r) { return elastic(job, cl, r, opt); },
        "RetryPolicy");
    expectEveryFieldKeyed(
        opt, [&](const auto &o) { return elastic(job, cl, retry, o); },
        "ElasticOptions");
}

/**
 * Values of a T just past @p domain's bound, the non-finite ones
 * included for a double (a bounded double must be finite).
 */
template <typename T>
std::vector<T>
pastBound(FieldDomain domain)
{
    std::vector<T> out;
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
        constexpr bool real = std::is_floating_point_v<T>;
        const T below_zero =
            real ? -std::numeric_limits<T>::denorm_min() : T(-1);
        switch (domain) {
          case FieldDomain::Positive:
            out.push_back(T(0));
            break;
          case FieldDomain::NonNegative:
            if (real || std::is_signed_v<T>)
                out.push_back(below_zero);
            break;
          case FieldDomain::Fraction:
            out.push_back(real ? T(std::nextafter(1.0, 2.0)) : T(2));
            if (real)
                out.push_back(below_zero);
            break;
          case FieldDomain::AtLeastOne:
            out.push_back(real ? T(std::nextafter(1.0, 0.0)) : T(0));
            break;
          case FieldDomain::Any:
            return out;
        }
        if constexpr (real) {
            out.push_back(std::numeric_limits<T>::quiet_NaN());
            out.push_back(std::numeric_limits<T>::infinity());
        }
    }
    return out;
}

/** Values of a T on @p domain's bound, which the domain holds. */
template <typename T>
std::vector<T>
onBound(FieldDomain domain)
{
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
        switch (domain) {
          case FieldDomain::Positive:
            return {std::is_floating_point_v<T>
                        ? std::numeric_limits<T>::denorm_min()
                        : T(1)};
          case FieldDomain::NonNegative:
            return {T(0)};
          case FieldDomain::Fraction:
            return {T(0), T(1)};
          case FieldDomain::AtLeastOne:
            return {T(1)};
          case FieldDomain::Any:
            break;
        }
    }
    return {};
}

/**
 * @p base passes @p check, the entry point that checks its record;
 * each bounded leaf field set alone just past its bound makes
 * @p check throw ConfigValidation naming the field's key, and set on
 * the bound passes checkFields. @return the bounded fields seen.
 */
template <typename R, typename Check>
std::size_t
expectEveryDomainChecked(const R &base, const Check &check,
                         const char *what)
{
    EXPECT_NO_THROW(check(base)) << what;
    std::size_t bounded = 0;
    R rec = base;
    forEachLeafField(
        [&](FieldName name, auto &v) {
            using T = std::remove_reference_t<decltype(v)>;
            if (name.domain == FieldDomain::Any)
                return;
            ++bounded;
            const T keep = v;
            for (const T &bad : pastBound<T>(name.domain)) {
                v = bad;
                try {
                    check(rec);
                    ADD_FAILURE() << what << " accepts " << name.key
                                  << " = " << fieldText(bad);
                } catch (const Error &e) {
                    EXPECT_EQ(e.code(), ErrorCode::ConfigValidation);
                    EXPECT_NE(std::string(e.what()).find(name.key),
                              std::string::npos)
                        << e.what();
                }
            }
            for (const T &ok : onBound<T>(name.domain)) {
                v = ok;
                EXPECT_NO_THROW(checkFields(rec, what))
                    << name.key << " = " << fieldText(ok);
            }
            v = keep;
        },
        rec);
    return bounded;
}

TEST(RecordKeys, EveryDomainIsCheckedWhereItsRecordEnters)
{
    const auto validate = [](const auto &r) { r.validate(); };
    for (auto v : {arch::CoreVersion::Tiny, arch::CoreVersion::Lite,
                   arch::CoreVersion::Mini, arch::CoreVersion::Std,
                   arch::CoreVersion::Max})
        EXPECT_EQ(expectEveryDomainChecked(arch::makeCoreConfig(v),
                                           validate, "core"),
                  15u);
    expectEveryDomainChecked(arch::makeNextGenCoreConfig(), validate,
                             "core");
    EXPECT_EQ(expectEveryDomainChecked(cluster::ServerConfig{}, validate,
                                       "server"),
              5u);
    EXPECT_EQ(expectEveryDomainChecked(cluster::ClusterConfig{}, validate,
                                       "cluster"),
              8u);

    const cluster::ClusterConfig cl;
    const resilience::FaultSchedule faults;
    const auto elastic = [&](const cluster::TrainingJob &j,
                             const resilience::RetryPolicy &r,
                             const cluster::ElasticOptions &o) {
        cluster::runElastic(j, cl, 16, 2, faults, r,
                            resilience::DegradedMode::ContinueDegraded,
                            o);
    };
    EXPECT_GT(expectEveryDomainChecked(
                  cluster::TrainingJob{},
                  [&](const auto &j) { elastic(j, {}, {}); },
                  "training job"),
              0u);
    EXPECT_GT(expectEveryDomainChecked(
                  resilience::RetryPolicy{},
                  [&](const auto &r) { elastic({}, r, {}); }, "retry"),
              0u);
    EXPECT_GT(expectEveryDomainChecked(
                  cluster::ElasticOptions{},
                  [&](const auto &o) { elastic({}, {}, o); }, "elastic"),
              3u);
    EXPECT_GT(expectEveryDomainChecked(
                  resilience::CheckpointPolicy{},
                  [](const auto &p) {
                      resilience::timeWithCheckpointRestart(10, 0.1, p);
                  },
                  "checkpoint"),
              0u);
    EXPECT_GT(expectEveryDomainChecked(
                  cluster::PipelineJob{},
                  [](const auto &j) { cluster::pipelineStepSeconds(j); },
                  "pipeline job"),
              0u);
    EXPECT_GT(expectEveryDomainChecked(
                  resilience::FaultSpec{},
                  [](const auto &s) {
                      resilience::FaultSchedule::generate(s);
                  },
                  "fault spec"),
              0u);
    EXPECT_GT(expectEveryDomainChecked(
                  resilience::CorrelatedFaultSpec{},
                  [](const auto &s) { resilience::generateCorrelated(s); },
                  "correlated fault spec"),
              12u); // its background's fields included

    const std::vector<serving::QosTier> tiers(1);
    EXPECT_GT(expectEveryDomainChecked(
                  serving::ArrivalSpec{},
                  [&](const auto &a) {
                      serving::generateArrivals(a, tiers);
                  },
                  "arrival spec"),
              0u);
    const serving::BatchLatencyModel model =
        serving::BatchLatencyModel::linear(0.01, 0.001, 4);
    EXPECT_GT(expectEveryDomainChecked(
                  serving::FleetOptions{},
                  [&](const auto &o) {
                      serving::runFleet({}, tiers, model, faults, o);
                  },
                  "fleet"),
              10u);

    // Every other listed record's default is in its domain too.
    const auto inDomain = [](const auto &rec, const char *what) {
        EXPECT_NO_THROW(checkFields(rec, what)) << what;
    };
    inDomain(compiler::CompileOptions{}, "compile options");
    inDomain(resilience::ResilienceOptions{}, "resilience options");
    inDomain(serving::QosTier{}, "tier");
    inDomain(serving::FleetCounters{}, "fleet counters");
    inDomain(cluster::ElasticCounters{}, "elastic counters");
    inDomain(core::SimResult{}, "sim result");
    inDomain(model::Layer::linear("fc", 8, 16, 32), "layer");
}

/** One record listed with domains, and its twin listed without. */
enum class ProbeKind { Off, On };

const char *
toString(ProbeKind kind)
{
    switch (kind) {
      case ProbeKind::Off: return "off";
      case ProbeKind::On:  return "on";
    }
    return "?";
}

struct BoundedProbe
{
    double share = 0.25;
    unsigned count = 3;
    ProbeKind kind = ProbeKind::On;
};

template <typename F, RecordOf<BoundedProbe>... P>
void
forEachField(F &&f, P &...p)
{
    f(fraction("share"), p.share...);
    f(positive("count"), p.count...);
    f("kind", p.kind...);
}

struct PlainProbe
{
    double share = 0.25;
    unsigned count = 3;
    ProbeKind kind = ProbeKind::On;
};

template <typename F, RecordOf<PlainProbe>... P>
void
forEachField(F &&f, P &...p)
{
    f("share", p.share...);
    f("count", p.count...);
    f("kind", p.kind...);
}

TEST(RecordKeys, DomainsMoveNoKeyOrBodyByte)
{
    BoundedProbe bounded;
    PlainProbe plain;
    for (const double share : {0.25, 1.0, 7.5, -1.0}) {
        bounded.share = plain.share = share;
        EXPECT_EQ(fieldKey(bounded), fieldKey(plain));
        EXPECT_EQ(encodeBody(bounded), encodeBody(plain));
        std::ostringstream a, b;
        writeFields(a, bounded);
        writeFields(b, plain);
        EXPECT_EQ(a.str(), b.str());
    }

    // The decoder refuses what the domain refuses, and an enum past
    // its last value whatever the list declares.
    const auto decodes = [](const PlainProbe &from, auto into) {
        const std::string body = encodeBody(from);
        ByteReader rd{body};
        return decodeBody(rd, into);
    };
    PlainProbe wide;
    EXPECT_TRUE(decodes(wide, BoundedProbe{}));
    wide.share = 1.5;
    EXPECT_FALSE(decodes(wide, BoundedProbe{}));
    EXPECT_TRUE(decodes(wide, PlainProbe{}));
    wide = PlainProbe{};
    wide.count = 0;
    EXPECT_FALSE(decodes(wide, BoundedProbe{}));
    wide = PlainProbe{};
    wide.kind = ProbeKind(2);
    EXPECT_FALSE(decodes(wide, BoundedProbe{}));
    EXPECT_FALSE(decodes(wide, PlainProbe{}));
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
