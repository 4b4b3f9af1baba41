/**
 * @file
 * Tests of the runtime layer: SimCache correctness (memoized results
 * are bit-identical to uncached simulation, keys separate every
 * compile knob, LRU bounds hold), SimSession network profiling, and
 * the deterministic thread pool (index ordering, exception
 * propagation, nesting).
 */

#include <atomic>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"

#include "result_diff.hh"

using namespace ascend;

namespace {

/** Every zoo network the cache-equivalence test sweeps. */
std::vector<model::Network>
zooNetworks()
{
    return {
        graph::toNetwork(graph::zoo::resnet50Graph(1)),
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1)),
        graph::toNetwork(
            graph::zoo::bertGraph("bert_2l", 1, 128, 768, 2, 12, 3072)),
        graph::toNetwork(graph::zoo::bertBaseGraph(1, 128)),
        graph::toNetwork(graph::zoo::gestureNetGraph(1)),
        graph::toNetwork(graph::zoo::vgg16Graph(1)),
        graph::zoo::maskRcnn(1),
        graph::zoo::wideDeep(1),
        graph::zoo::lstm(1),
        graph::zoo::siameseTracker(1),
        graph::zoo::pointNet(1),
        graph::zoo::slamFrontend(256),
    };
}

TEST(SimCache, CachedResultsMatchUncachedForEveryZooNetwork)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Std);
    for (const auto &net : zooNetworks()) {
        // Fresh private caches: one session simulates cold, the
        // second returns the same layers from its warm cache.
        auto cache = std::make_shared<runtime::SimCache>();
        runtime::SimSession cold(cfg, {}, cache);
        runtime::SimSession warm(cfg, {}, cache);
        const auto uncached = cold.runInference(net);
        const auto hits = cache->stats().hits;
        const auto cached = warm.runInference(net);
        ASSERT_EQ(uncached.size(), cached.size()) << net.name;
        for (std::size_t i = 0; i < uncached.size(); ++i)
            EXPECT_EQ(resultDiff(uncached[i].result, cached[i].result), "")
                << net.name << " layer " << i;
        // The warm pass must have been served from the memo.
        EXPECT_GE(cache->stats().hits - hits, net.layers.size())
            << net.name;
    }
}

TEST(SimCache, HitReturnsEveryFieldItStored)
{
    // Compiled layers carry no barriers, so the zoo sweep cannot see a
    // hit that drops them: here every field is distinct and nonzero.
    core::SimResult r;
    r.totalCycles = 1000;
    r.totalFlops = 1u << 20;
    r.instrsExecuted = 77;
    r.barriers = 3;
    for (std::size_t p = 0; p < isa::kNumPipes; ++p)
        r.pipes[p] = {100 + p, 200 + p, 300 + p, 400 + p};
    for (std::size_t b = 0; b < isa::kNumBuses; ++b)
        r.busBytes[b] = 4096 + b;
    runtime::SimCache cache;
    cache.insert("k", r);
    core::SimResult out;
    ASSERT_TRUE(cache.lookup("k", out));
    EXPECT_EQ(resultDiff(r, out), "");
}

TEST(SimCache, KeySeparatesCoreConfigs)
{
    auto a = arch::makeCoreConfig(arch::CoreVersion::Max);
    auto b = a;
    b.vectorWidthBytes /= 2;
    EXPECT_NE(runtime::fingerprint(a), runtime::fingerprint(b));
    // The name is cosmetic: same design point, same key.
    auto renamed = a;
    renamed.name = "same-shape-different-name";
    EXPECT_EQ(runtime::fingerprint(a), runtime::fingerprint(renamed));
}

TEST(SimCache, KeySeparatesCompileOptions)
{
    const compiler::CompileOptions base;

    compiler::CompileOptions sparse;
    sparse.sparsity.weightDensity = 0.5;
    EXPECT_NE(runtime::fingerprint(base), runtime::fingerprint(sparse));

    compiler::CompileOptions structured = sparse;
    structured.sparsity.structured = true;
    EXPECT_NE(runtime::fingerprint(sparse),
              runtime::fingerprint(structured));

    compiler::CompileOptions deep;
    deep.pipelineDepth = 4;
    EXPECT_NE(runtime::fingerprint(base), runtime::fingerprint(deep));

    compiler::CompileOptions vec;
    vec.mapGemmToVector = true;
    EXPECT_NE(runtime::fingerprint(base), runtime::fingerprint(vec));
}

TEST(SimCache, OptionVariantsSimulateDifferently)
{
    // End-to-end guard: sessions differing only in options must not
    // serve each other's results even when sharing one cache.
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    auto cache = std::make_shared<runtime::SimCache>();
    compiler::CompileOptions sparse;
    sparse.sparsity.weightDensity = 0.25;
    sparse.sparsity.structured = true;
    runtime::SimSession dense_s(cfg, {}, cache);
    runtime::SimSession sparse_s(cfg, sparse, cache);
    const auto layer =
        model::Layer::conv2d("c", 1, 64, 28, 28, 64, 3, 1, 1);
    const auto dense_r = dense_s.runLayer(layer);
    const auto sparse_r = sparse_s.runLayer(layer);
    EXPECT_LT(sparse_r.bus(isa::Bus::ExtB), dense_r.bus(isa::Bus::ExtB));
}

TEST(SimCache, LayerNameDoesNotAffectKey)
{
    const auto a = model::Layer::linear("first", 128, 256, 512);
    const auto b = model::Layer::linear("second", 128, 256, 512);
    EXPECT_EQ(runtime::fingerprint(a), runtime::fingerprint(b));
    const auto c = model::Layer::linear("third", 128, 256, 513);
    EXPECT_NE(runtime::fingerprint(a), runtime::fingerprint(c));
}

TEST(SimCache, LruEvictionAndCounters)
{
    runtime::SimCache cache(2);
    core::SimResult r;
    r.totalCycles = 1;
    core::SimResult out;

    EXPECT_FALSE(cache.lookup("a", out)); // miss 1
    cache.insert("a", r);
    cache.insert("b", r);
    EXPECT_TRUE(cache.lookup("a", out)); // hit 1; "a" now most recent
    cache.insert("c", r);                // evicts "b"
    EXPECT_TRUE(cache.lookup("a", out));  // hit 2
    EXPECT_FALSE(cache.lookup("b", out)); // miss 2 (evicted)
    EXPECT_TRUE(cache.lookup("c", out));  // hit 3

    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);

    // clear() drops entries but keeps the cumulative counters.
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_FALSE(cache.lookup("a", out));
}

TEST(ThreadPool, ResultsLandByIndex)
{
    runtime::ThreadPool pool(4);
    std::vector<int> items(257);
    std::iota(items.begin(), items.end(), 0);
    const auto out = pool.map(items, [](int v) { return v * v; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i) * int(i));
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    runtime::ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallelFor(counts.size(),
                     [&](std::size_t i) { counts[i]++; });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException)
{
    runtime::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool survives a throwing job and runs the next one.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) { ran++; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, AggregatesConcurrentExceptions)
{
    // Regression: exceptions after the first failing index used to be
    // dropped. With many concurrently throwing tasks, every failure
    // must be represented in one ParallelFailure error.
    runtime::ThreadPool pool(4);
    try {
        pool.parallelFor(64, [](std::size_t i) {
            if (i % 8 == 0) // 8 distinct failures
                throw std::runtime_error("task-" + std::to_string(i) +
                                         "-failed");
        });
        FAIL() << "expected an aggregated failure";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::ParallelFailure);
        const std::string what = e.what();
        for (std::size_t i = 0; i < 64; i += 8)
            EXPECT_NE(what.find("task-" + std::to_string(i) +
                                "-failed"),
                      std::string::npos)
                << "missing failure of index " << i << " in: " << what;
    } catch (const std::runtime_error &e) {
        // A scheduling fluke where only one task ran before the rest
        // were drained would rethrow the single original exception —
        // but with 8 throwers across 64 indices on 4 threads at least
        // two must execute. Treat this as the dropped-exception bug.
        FAIL() << "exceptions were dropped; only saw: " << e.what();
    }
    // The pool survives and the next job is clean.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) { ran++; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, NestedLoopsDegradeToSerial)
{
    runtime::ThreadPool pool(4);
    std::vector<int> sums(8, 0);
    pool.parallelFor(sums.size(), [&](std::size_t i) {
        // Inner loop must run inline on this thread (no deadlock,
        // no cross-talk between outer iterations).
        int local = 0;
        runtime::globalPool().parallelFor(
            10, [&](std::size_t j) { local += int(j); });
        sums[i] = local;
    });
    for (int s : sums)
        EXPECT_EQ(s, 45);
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    runtime::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t i) { order.push_back(int(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimSession, TrainingRunsAreCachedConsistently)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    auto cache = std::make_shared<runtime::SimCache>();
    runtime::SimSession cold(cfg, {}, cache);
    runtime::SimSession warm(cfg, {}, cache);
    const auto net = graph::toNetwork(
        graph::zoo::bertGraph("b", 1, 128, 256, 1, 4, 1024));
    const auto a = cold.runTraining(net);
    const auto b = warm.runTraining(net);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), b[i].size());
        for (std::size_t j = 0; j < a[i].size(); ++j)
            EXPECT_EQ(resultDiff(a[i][j].result, b[i][j].result), "");
    }
}

/** Every deterministic counter, as (name, value). */
std::vector<std::pair<std::string, std::uint64_t>>
deterministicCounters()
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const runtime::CounterEntry &e : runtime::counterSnapshot())
        if (e.determinism == runtime::Determinism::Deterministic)
            out.emplace_back(e.name, e.value);
    return out;
}

/** What one pass over a layer list left behind, on a fresh cache. */
struct PassRecord
{
    std::vector<core::SimResult> results;
    runtime::SimCache::Stats stats;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/**
 * Answer @p layers on a fresh-cache session of @p sur, through the
 * batch path when @p batch (training layers in one runTraining when
 * @p training, else one runInference) or else through one runLayer
 * per layer, in order.
 */
PassRecord
runPass(const model::Network &net, const std::vector<model::Layer> &layers,
        bool training, bool batch,
        const surrogate::SurrogateOptions &sur)
{
    runtime::resetCounters();
    const auto cache = std::make_shared<runtime::SimCache>();
    const runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std), {}, cache, {}, sur);
    PassRecord rec;
    if (!batch) {
        for (const model::Layer &l : layers)
            rec.results.push_back(session.runLayer(l));
    } else if (training) {
        for (const auto &step : session.runTraining(net))
            for (const runtime::LayerRun &run : step)
                rec.results.push_back(run.result);
    } else {
        for (const runtime::LayerRun &run : session.runInference(net))
            rec.results.push_back(run.result);
    }
    rec.stats = cache->stats();
    rec.counters = deterministicCounters();
    return rec;
}

TEST(SimSession, BatchEqualsLayerByLayer)
{
    for (const bool surrogateOn : {false, true}) {
        surrogate::SurrogateOptions sur;
        sur.enabled = surrogateOn;
        for (const auto &net : zooNetworks()) {
            for (const bool training : {false, true}) {
                std::vector<model::Layer> layers;
                if (training) {
                    for (const auto &step : model::trainingSteps(net)) {
                        layers.push_back(step.fwd);
                        layers.insert(layers.end(), step.bwd.begin(),
                                      step.bwd.end());
                    }
                } else {
                    layers = net.layers;
                }
                const PassRecord serial =
                    runPass(net, layers, training, false, sur);
                for (const unsigned threads : {1u, 4u}) {
                    const std::string at =
                        net.name + (training ? " training" : " inference") +
                        " surrogate=" + std::to_string(surrogateOn) +
                        " threads=" + std::to_string(threads);
                    runtime::ScopedThreadPoolSize pool(threads);
                    const PassRecord batch =
                        runPass(net, layers, training, true, sur);
                    ASSERT_EQ(batch.results.size(), serial.results.size())
                        << at;
                    for (std::size_t i = 0; i < serial.results.size(); ++i)
                        EXPECT_EQ(resultDiff(batch.results[i],
                                             serial.results[i]),
                                  "")
                            << at << " layer " << i;
                    if (surrogateOn)
                        continue;
                    EXPECT_EQ(batch.stats.hits, serial.stats.hits) << at;
                    EXPECT_EQ(batch.stats.misses, serial.stats.misses) << at;
                    EXPECT_EQ(batch.counters, serial.counters) << at;
                }
            }
        }
    }
}

TEST(SimSession, BatchSimulatesEachDistinctMissOnce)
{
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(1));
    std::set<std::string> shapes;
    for (const model::Layer &l : net.layers)
        shapes.insert(runtime::fingerprint(l));
    ASSERT_LT(shapes.size(), net.layers.size()); // shapes repeat

    runtime::ScopedThreadPoolSize pool(4);
    const auto cache = std::make_shared<runtime::SimCache>();
    const runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std), {}, cache, {},
        surrogate::SurrogateOptions{});
    (void)session.runInference(net);
    EXPECT_EQ(cache->stats().misses, shapes.size());
    EXPECT_EQ(cache->stats().hits, net.layers.size() - shapes.size());
    EXPECT_EQ(cache->stats().entries, shapes.size());
}

} // anonymous namespace
