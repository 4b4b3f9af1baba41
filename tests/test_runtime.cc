/**
 * @file
 * Tests of the runtime layer: SimCache correctness (memoized results
 * are bit-identical to uncached simulation, keys separate every
 * compile knob, LRU bounds hold), SimSession network profiling, and
 * the deterministic thread pool (index ordering, exception
 * propagation, nesting).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "common/atomic_file.hh"
#include "common/codec.hh"
#include "common/error.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"

using namespace ascend;

namespace {

/** Field-by-field equality of two SimResults. */
void
expectResultEq(const core::SimResult &a, const core::SimResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.totalFlops, b.totalFlops);
    EXPECT_EQ(a.instrsExecuted, b.instrsExecuted);
    for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
        EXPECT_EQ(a.pipes[p].busyCycles, b.pipes[p].busyCycles);
        EXPECT_EQ(a.pipes[p].finishCycle, b.pipes[p].finishCycle);
        EXPECT_EQ(a.pipes[p].instrs, b.pipes[p].instrs);
    }
    for (std::size_t bus = 0; bus < isa::kNumBuses; ++bus)
        EXPECT_EQ(a.busBytes[bus], b.busBytes[bus]);
}

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
            expectResultEq(uncached[i].result, cached[i].result);
        // The warm pass must have been served from the memo.
        EXPECT_GE(cache->stats().hits - hits, net.layers.size())
            << net.name;
    }
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

// ------------------------------------------- SimCache persistence

/** Unique file path inside gtest's per-run temp directory. */
std::string
cacheFileFor(const char *test)
{
    return ::testing::TempDir() + "ascend_" + test + "_cache.bin";
}

TEST(SimCachePersist, WarmColdRoundTripIsBitIdentical)
{
    const std::string path = cacheFileFor("roundtrip");
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Std);
    const auto net = graph::toNetwork(graph::zoo::resnet50Graph(1));

    auto cold_cache = std::make_shared<runtime::SimCache>();
    runtime::SimSession cold(cfg, {}, cold_cache);
    const auto uncached = cold.runInference(net);
    ASSERT_TRUE(cold_cache->saveFile(path));
    EXPECT_EQ(cold_cache->stats().diskStores,
              cold_cache->stats().entries);

    auto warm_cache = std::make_shared<runtime::SimCache>();
    EXPECT_EQ(warm_cache->loadFile(path),
              cold_cache->stats().entries);
    runtime::SimSession warm(cfg, {}, warm_cache);
    const auto cached = warm.runInference(net);

    // Every layer must come from disk (no re-simulation) and match
    // the original result bit for bit.
    EXPECT_EQ(warm_cache->stats().misses, 0u);
    ASSERT_EQ(uncached.size(), cached.size());
    for (std::size_t i = 0; i < uncached.size(); ++i)
        expectResultEq(uncached[i].result, cached[i].result);
}

TEST(SimCachePersist, VersionMismatchInvalidatesCleanly)
{
    const std::string path = cacheFileFor("version");
    runtime::SimCache cache;
    core::SimResult r;
    r.totalCycles = 42;
    cache.insert("key", r);
    ASSERT_TRUE(cache.saveFile(path, "code-v1"));

    runtime::SimCache stale;
    EXPECT_EQ(stale.loadFile(path, "code-v2"), 0u);
    EXPECT_EQ(stale.stats().entries, 0u);

    runtime::SimCache fresh;
    EXPECT_EQ(fresh.loadFile(path, "code-v1"), 1u);
    core::SimResult out;
    EXPECT_TRUE(fresh.lookup("key", out));
    EXPECT_EQ(out.totalCycles, 42u);
}

TEST(SimCachePersist, PreviousCodeVersionFileAdoptsNothing)
{
    // ascend-sim-4 files key graph totals under the old agr: hash,
    // which names other graphs now: the whole file must be refused.
    const std::string path = cacheFileFor("previous_version");
    runtime::SimCache cache;
    core::SimResult r;
    r.totalCycles = 42;
    cache.insert("key", r);
    ASSERT_TRUE(cache.saveFile(path, "ascend-sim-4"));

    EXPECT_STREQ(runtime::SimCache::codeVersion(), "ascend-sim-5");
    runtime::SimCache current;
    EXPECT_EQ(current.loadFile(path), 0u);
    EXPECT_EQ(current.stats().entries, 0u);
    EXPECT_EQ(current.stats().diskLoads, 0u);
}

TEST(SimCachePersist, TruncatedAndCorruptFilesAreIgnored)
{
    // The fuzz suite (test_checkpoint_fuzz) refuses every malformed
    // shape of the file. What is left to check here is the cache
    // around a refusal: it adopts nothing, and the next save over the
    // damaged path rebuilds a file that loads whole.
    const std::string path = cacheFileFor("corrupt");
    runtime::SimCache cache;
    core::SimResult r;
    for (int i = 0; i < 8; ++i) {
        r.totalCycles = Cycles(i + 1);
        cache.insert("key-" + std::to_string(i), r);
    }
    ASSERT_TRUE(cache.saveFile(path));
    const std::string blob = readFile(path).value();

    runtime::SimCache empty;
    EXPECT_EQ(empty.loadFile(path + ".does-not-exist"), 0u);

    // A cut, and the zeroed tail a power loss without fsync leaves.
    std::string zeroed = blob;
    std::fill(zeroed.begin() + std::ptrdiff_t(blob.size() / 2),
              zeroed.end(), '\0');
    for (const std::string &damaged :
         {blob.substr(0, blob.size() / 2), zeroed}) {
        ASSERT_TRUE(writeFileAtomic(path, damaged));
        runtime::SimCache partial;
        EXPECT_EQ(partial.loadFile(path), 0u);
        EXPECT_EQ(partial.stats().entries, 0u);
        EXPECT_EQ(partial.stats().diskLoads, 0u);
    }

    ASSERT_TRUE(cache.saveFile(path));
    runtime::SimCache rebuilt;
    EXPECT_EQ(rebuilt.loadFile(path), 8u);
    core::SimResult out;
    EXPECT_TRUE(rebuilt.lookup("key-3", out));
    EXPECT_EQ(out.totalCycles, Cycles(4));
}

TEST(SimCachePersist, RecordBreakingPipeAccountingIsRefused)
{
    // A record no simulation can produce (busy > finish, finish >
    // total, or busy + wait > total on some pipe) makes the whole file
    // malformed: a fresh cache adopts none of its entries.
    const std::string path = cacheFileFor("accounting");
    core::SimResult good;
    good.totalCycles = 10;
    good.pipes[1] = {4, 8, 6, 1}; // busy, finish, wait, instrs
    auto broken = [&good](Cycles busy, Cycles finish, Cycles wait) {
        core::SimResult r = good;
        r.pipes[3] = {busy, finish, wait, 1};
        return r;
    };
    {
        runtime::SimCache cache;
        cache.insert("good", good);
        cache.insert("edge", broken(5, 10, 5)); // at every bound
        ASSERT_TRUE(cache.saveFile(path));
        runtime::SimCache fresh;
        EXPECT_EQ(fresh.loadFile(path), 2u);
    }
    for (const core::SimResult &bad :
         {broken(6, 10, 5), broken(6, 5, 0), broken(1, 11, 0),
          broken(1, 1, ~Cycles(0))}) {
        runtime::SimCache cache;
        cache.insert("good", good);
        cache.insert("bad", bad);
        ASSERT_TRUE(cache.saveFile(path));
        runtime::SimCache fresh;
        EXPECT_EQ(fresh.loadFile(path), 0u);
        EXPECT_EQ(fresh.stats().entries, 0u);
        EXPECT_EQ(fresh.stats().diskLoads, 0u);
    }
}

TEST(SimCachePersist, BitFlipInsideAResultIsRefusedNotServed)
{
    // One flipped bit inside a stored SimResult must not turn a saved
    // 1000 cycles into 5096: the file is refused whole.
    const std::string path = cacheFileFor("bitflip");
    runtime::SimCache cache;
    core::SimResult r;
    r.totalCycles = 1000;
    cache.insert("layer", r);
    ASSERT_TRUE(cache.saveFile(path));

    std::string blob = readFile(path).value();
    const std::uint64_t cycles = 1000;
    const std::size_t at = blob.find(
        std::string(reinterpret_cast<const char *>(&cycles), 8));
    ASSERT_NE(at, std::string::npos);
    blob[at + 1] = char(blob[at + 1] ^ 0x10); // 1000 -> 5096
    ASSERT_TRUE(writeFileAtomic(path, blob));

    runtime::SimCache loaded;
    EXPECT_EQ(loaded.loadFile(path), 0u);
    core::SimResult out;
    EXPECT_FALSE(loaded.lookup("layer", out))
        << "served totalCycles = " << out.totalCycles;
}

TEST(SimCachePersist, OldFormatFileIsRejectedAndRebuilt)
{
    // A well-formed file of the previous format version must be
    // refused cleanly, and the same path must accept a fresh save
    // afterwards (silent rebuild, no stale residue).
    const std::string path = cacheFileFor("format_old");
    runtime::SimCache cache;
    core::SimResult r;
    r.totalCycles = 42;
    cache.insert("key", r);
    ASSERT_TRUE(cache.saveFile(path));

    // Bytes [8, 16) hold the format version. Rewrite it to 2 and
    // reseal the checksum, so the version check itself refuses.
    std::string blob = readFile(path).value();
    ASSERT_GE(blob.size(), 24u);
    const std::uint64_t old_format = 2;
    std::memcpy(&blob[8], &old_format, sizeof(old_format));
    blob.resize(blob.size() - 8);
    writeU64(blob, fnv1a(blob.data(), blob.size()));
    ASSERT_TRUE(writeFileAtomic(path, blob));

    runtime::SimCache stale;
    EXPECT_EQ(stale.loadFile(path), 0u);
    EXPECT_EQ(stale.stats().entries, 0u);
    EXPECT_EQ(stale.stats().diskLoads, 0u);

    // The rebuild overwrites the stale file and round-trips again.
    runtime::SimCache rebuilt;
    rebuilt.insert("key", r);
    ASSERT_TRUE(rebuilt.saveFile(path));
    runtime::SimCache fresh;
    EXPECT_EQ(fresh.loadFile(path), 1u);
    core::SimResult out;
    EXPECT_TRUE(fresh.lookup("key", out));
    EXPECT_EQ(out.totalCycles, 42u);
}

TEST(SimCachePersist, TruncatedHeaderIsRejectedCleanly)
{
    // Cuts inside the frame header (magic, format version, identity,
    // body length) must load nothing: every header field is checked
    // before any entry is adopted.
    const std::string path = cacheFileFor("header_cut");
    runtime::SimCache cache;
    core::SimResult r;
    r.totalCycles = 7;
    cache.insert("k", r);
    ASSERT_TRUE(cache.saveFile(path));
    const std::string blob = readFile(path).value();

    ByteReader header{blob, 8};
    std::uint64_t format = 0, body_len = 0;
    std::string identity;
    ASSERT_TRUE(header.readU64(format) &&
                header.readBytes(identity, blob.size()) &&
                header.readU64(body_len));
    ASSERT_LT(header.pos, blob.size());

    const std::string cut_path = cacheFileFor("header_cut_part");
    for (std::size_t cut = 1; cut <= header.pos; ++cut) {
        ASSERT_TRUE(writeFileAtomic(cut_path, blob.substr(0, cut)));
        runtime::SimCache partial;
        EXPECT_EQ(partial.loadFile(cut_path), 0u) << "cut at " << cut;
        EXPECT_EQ(partial.stats().entries, 0u);
    }
}

// The ASCEND_SIM_STATS=1 report and the ASCEND_CACHE_DIR save both run
// at exit. A run that writes the cache file must report its stores.
TEST(SimCachePersistDeathTest, ExitReportCountsTheExitSave)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string dir = ::testing::TempDir() + "ascend_exit_report";
    std::remove(runtime::SimCache::filePath(dir).c_str());
    ASSERT_EQ(setenv("ASCEND_CACHE_DIR", dir.c_str(), 1), 0);
    ASSERT_EQ(setenv("ASCEND_SIM_STATS", "1", 1), 0);
    EXPECT_EXIT(
        {
            bench::banner("exit report");
            runtime::SimSession session(
                arch::makeCoreConfig(arch::CoreVersion::Tiny));
            session.runInference(
                graph::toNetwork(graph::zoo::gestureNetGraph(1)));
            std::exit(0);
        },
        testing::ExitedWithCode(0), "disk stores +[1-9]");
    unsetenv("ASCEND_CACHE_DIR");
    unsetenv("ASCEND_SIM_STATS");
}

TEST(SimCachePersist, SaveCreatesParentDirectories)
{
    const std::string dir =
        ::testing::TempDir() + "ascend_nested/dir";
    const std::string path = runtime::SimCache::filePath(dir);
    runtime::SimCache cache;
    core::SimResult r;
    r.totalCycles = 7;
    cache.insert("k", r);
    ASSERT_TRUE(cache.saveFile(path));
    runtime::SimCache again;
    EXPECT_EQ(again.loadFile(path), 1u);
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
            expectResultEq(a[i][j].result, b[i][j].result);
    }
}

} // anonymous namespace
