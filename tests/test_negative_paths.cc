/**
 * @file
 * Negative-path tests: the stack must reject malformed inputs with
 * structured ascend::Error values (never silently mis-simulate, never
 * abort the process for recoverable user error), and shared state
 * like the SimCache must stay clean when a computation throws.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/chaos_harness.hh"
#include "cluster/collective.hh"
#include "cluster/elastic_run.hh"
#include "cluster/fault_collective.hh"
#include "common/error.hh"
#include "common/field.hh"
#include "compiler/autotiler.hh"
#include "compiler/layer_compiler.hh"
#include "graph/decoder.hh"
#include "graph/zoo_graphs.hh"
#include "resilience/fault_domain.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"
#include "serving/fleet.hh"
#include "surrogate/surrogate.hh"

using namespace ascend;
using compiler::LayerCompiler;

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

TEST(ErrorType, CarriesCodeAndMessage)
{
    const Error e(ErrorCode::InvalidLayer, "bad shape");
    EXPECT_EQ(e.code(), ErrorCode::InvalidLayer);
    EXPECT_EQ(e.context(), "bad shape");
    EXPECT_NE(std::string(e.what()).find("invalid-layer"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bad shape"),
              std::string::npos);
    EXPECT_STREQ(toString(ErrorCode::TileTooLarge), "tile-too-large");
    EXPECT_STREQ(toString(ErrorCode::ParallelFailure),
                 "parallel-failure");
}

TEST(NegativeLayers, MalformedShapesRejected)
{
    LayerCompiler lc(arch::makeCoreConfig(arch::CoreVersion::Max));

    model::Layer conv = model::Layer::conv2d(
        "c", 1, 3, 224, 224, 8, 3, 1, 1);
    conv.inC = 0;
    expectError([&] { lc.compile(conv); }, ErrorCode::InvalidLayer,
                "input dims");

    conv = model::Layer::conv2d("c", 1, 3, 224, 224, 8, 3, 1, 1);
    conv.batch = 0;
    expectError([&] { lc.compile(conv); }, ErrorCode::InvalidLayer,
                "batch");

    conv = model::Layer::conv2d("c", 1, 3, 224, 224, 8, 3, 1, 1);
    conv.strideH = 0;
    expectError([&] { lc.compile(conv); }, ErrorCode::InvalidLayer,
                "strides");

    // 7x7 kernel over a 4x4 unpadded input has no valid placement.
    conv = model::Layer::conv2d("c", 1, 3, 4, 4, 8, 7, 1, 0);
    expectError([&] { lc.compile(conv); }, ErrorCode::InvalidLayer,
                "kernel larger");

    model::Layer fc = model::Layer::linear("fc", 32, 1024, 1000);
    fc.gemmK = 0;
    expectError([&] { lc.compile(fc); }, ErrorCode::InvalidLayer,
                "GEMM dims");

    model::Layer ln = model::Layer::layerNorm("ln", 1 << 20, 768);
    ln.rowLen = 0;
    expectError([&] { lc.compile(ln); }, ErrorCode::InvalidLayer,
                "row length");

    // The well-formed versions still compile.
    EXPECT_GT(lc.compile(model::Layer::conv2d("c", 1, 3, 224, 224, 8,
                                              3, 1, 1)).size(), 0u);
    EXPECT_GT(lc.compile(model::Layer::linear("fc", 32, 1024, 1000))
                  .size(), 0u);
}

TEST(NegativeTiles, OversizeTileRejected)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    compiler::AutoTiler tiler(cfg);
    const model::Layer fc = model::Layer::linear("fc", 512, 4096, 4096);

    compiler::GemmTile huge;
    huge.mt = 4096;
    huge.kt = 4096;
    huge.nt = 4096; // 32 MiB of A alone: no L0 holds that
    expectError([&] { tiler.compileWithTile(fc, huge); },
                ErrorCode::TileTooLarge, "overflows L0");

    compiler::GemmTile zero;
    zero.mt = 0;
    expectError([&] { tiler.compileWithTile(fc, zero); },
                ErrorCode::TileTooLarge, "positive");

    // A legitimate searched tile still compiles and simulates.
    const auto found = tiler.search(fc);
    EXPECT_GT(found.candidatesTried, 0u);
    EXPECT_GT(tiler.compileWithTile(fc, found.best).size(), 0u);
}

TEST(NegativeCache, ThrowingComputationLeavesCacheClean)
{
    auto cache = std::make_shared<runtime::SimCache>();
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    runtime::SimSession session(cfg, {}, cache);

    model::Layer bad = model::Layer::linear("bad", 32, 1024, 1000);
    bad.gemmM = 0;
    const auto before = cache->stats();
    EXPECT_THROW(session.runLayer(bad), Error);
    const auto after = cache->stats();
    // The failed run counts its probe as a miss but must not insert
    // a poisoned entry...
    EXPECT_EQ(after.entries, before.entries);
    // ...and must not break later lookups: the repaired layer runs,
    // caches, and repeat runs hit.
    const model::Layer good = model::Layer::linear("bad", 32, 1024,
                                                   1000);
    const core::SimResult first = session.runLayer(good);
    const core::SimResult again = session.runLayer(good);
    EXPECT_EQ(first.totalCycles, again.totalCycles);
    EXPECT_GT(cache->stats().hits, after.hits);
    // The malformed layer still throws (its failure was never cached
    // as a result).
    EXPECT_THROW(session.runLayer(bad), Error);
}

TEST(NegativeClusterConfig, ValidationRejectsDegenerateTopologies)
{
    cluster::ServerConfig server;
    server.hccsBytesPerSec = 0;
    expectError([&] { server.validate(); },
                ErrorCode::ConfigValidation, "hccs");

    server = cluster::ServerConfig{};
    server.linkLatencySec = -1e-6;
    expectError([&] { server.validate(); },
                ErrorCode::ConfigValidation, "latency");

    server = cluster::ServerConfig{};
    server.chips = 0;
    expectError([&] { server.validate(); },
                ErrorCode::ConfigValidation, "chip");

    server = cluster::ServerConfig{};
    server.chipsPerGroup = 3; // does not divide 8
    expectError([&] { server.validate(); },
                ErrorCode::ConfigValidation, "divide");

    cluster::ClusterConfig cl;
    cl.netBytesPerSec = 0;
    expectError([&] { cl.validate(); },
                ErrorCode::ConfigValidation, "net");

    cl = cluster::ClusterConfig{};
    cl.servers = 0;
    expectError([&] { cl.validate(); },
                ErrorCode::ConfigValidation, "server");

    EXPECT_NO_THROW(cluster::ClusterConfig{}.validate());
}

TEST(NegativeClusterConfig, ParserRejectsMalformedText)
{
    expectError([] { cluster::clusterConfigFromString("servers"); },
                ErrorCode::ConfigParse, "key = value");
    expectError(
        [] { cluster::clusterConfigFromString("bogus = 1\n"); },
        ErrorCode::ConfigParse, "unknown key");
    expectError(
        [] { cluster::clusterConfigFromString("servers = many\n"); },
        ErrorCode::ConfigParse, "bad");
    expectError(
        [] { cluster::clusterConfigFromString("net_bytes_per_sec = nan\n"); },
        ErrorCode::ConfigParse, "bad");
    // A value its field cannot hold is refused, never wrapped.
    expectError(
        [] { cluster::clusterConfigFromString("servers = -1\n"); },
        ErrorCode::ConfigParse, "bad integer");
    expectError(
        [] { cluster::clusterConfigFromString("chips = 4294967297\n"); },
        ErrorCode::ConfigParse, "bad integer");
    // Values that parse but violate validation surface as such.
    expectError(
        [] { cluster::clusterConfigFromString("servers = 0\n"); },
        ErrorCode::ConfigValidation, "server");
    // Each factor fits, but the chip count would wrap.
    expectError(
        [] {
            cluster::clusterConfigFromString("servers = 4294967295\n");
        },
        ErrorCode::ConfigValidation, "overflow");
}

TEST(NegativeClusterConfig, RoundTrips)
{
    cluster::ClusterConfig cl;
    cl.servers = 12;
    cl.server.chips = 4;
    cl.server.chipsPerGroup = 2;
    cl.netBytesPerSec = 25e9;
    const std::string text = cluster::clusterConfigToString(cl);
    const cluster::ClusterConfig back =
        cluster::clusterConfigFromString(text);
    EXPECT_EQ(back.servers, cl.servers);
    EXPECT_EQ(back.server.chips, cl.server.chips);
    EXPECT_EQ(back.server.chipsPerGroup, cl.server.chipsPerGroup);
    EXPECT_EQ(back.netBytesPerSec, cl.netBytesPerSec);
    EXPECT_EQ(back.server.hccsBytesPerSec, cl.server.hccsBytesPerSec);

    // Bit for bit: every field off its default, doubles with no short
    // decimal form. The key holds each field's exact bits.
    cl.server.chips = 6;
    cl.server.chipsPerGroup = 3;
    cl.server.hccsBytesPerSec = 30e9 / 7;
    cl.server.pcieBytesPerSec = 32e9 / 3;
    cl.server.linkLatencySec = 1.0 / 3;
    cl.servers = 13;
    cl.netBytesPerSec = 12500000100;
    cl.netLatencySec = 5e-6 / 7;
    const cluster::ClusterConfig odd = cluster::clusterConfigFromString(
        cluster::clusterConfigToString(cl));
    EXPECT_EQ(fieldKey(odd), fieldKey(cl));
    EXPECT_NE(fieldKey(cluster::ClusterConfig{}), fieldKey(cl));
}

TEST(NegativeClusterConfig, RunIdentitySeesEveryDigit)
{
    // Two clusters equal to six significant digits are two runs: a
    // checkpoint of one must not resume under the other.
    cluster::ClusterConfig a;
    cluster::ClusterConfig b;
    b.netBytesPerSec = a.netBytesPerSec * (1 + 1e-9);
    cluster::TrainingJob job;
    job.stepSecondsPerChip = 0.1;
    job.gradientBytes = 1 << 20;
    job.samplesPerChipStep = 32;
    const auto id = [&](const cluster::ClusterConfig &cl) {
        return cluster::runFingerprint(
            job, cl, 64, 10, resilience::FaultSchedule{}, {},
            resilience::DegradedMode::ContinueDegraded, {});
    };
    EXPECT_NE(id(a), id(b));
}

TEST(NegativeFleet, CallerInputIsRefusedNotAborted)
{
    const std::vector<serving::QosTier> tiers(1);
    const std::vector<serving::Request> arrivals = {{0, 0.0, 0},
                                                    {1, 0.1, 0}};
    const serving::BatchLatencyModel model =
        serving::BatchLatencyModel::linear(0.01, 0.001, 4);
    const resilience::FaultSchedule faults;

    serving::FleetOptions none;
    none.replicas = 0;
    expectError([&] { checkFields(none, "fleet"); },
                ErrorCode::ConfigValidation, "replica");
    expectError(
        [&] { serving::runFleet(arrivals, tiers, model, faults, none); },
        ErrorCode::ConfigValidation, "replica");
    expectError(
        [&] { serving::runFleet(arrivals, {}, model, faults); },
        ErrorCode::ConfigValidation, "tier");
    const std::vector<serving::Request> stray = {{0, 0.0, 0},
                                                 {1, 0.1, 1}};
    expectError(
        [&] { serving::runFleet(stray, tiers, model, faults); },
        ErrorCode::ConfigValidation, "tier 1 of 1");
    EXPECT_NO_THROW(serving::runFleet(arrivals, tiers, model, faults));
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NegativeFleet, OptionDomainsAreRefusedAtRunEntry)
{
    const std::vector<serving::QosTier> tiers(1);
    const std::vector<serving::Request> arrivals = {{0, 0.0, 0},
                                                    {1, 0.1, 0}};
    const serving::BatchLatencyModel model =
        serving::BatchLatencyModel::linear(0.01, 0.001, 4);
    const resilience::FaultSchedule faults;
    const auto refused = [&](auto &&tweak, const char *key) {
        serving::FleetOptions o;
        tweak(o);
        expectError(
            [&] { serving::runFleet(arrivals, tiers, model, faults, o); },
            ErrorCode::ConfigValidation, key);
    };
    // A zero delay would stall the sim clock; the rest run silently.
    refused(
        [](serving::FleetOptions &o) {
            o.hedge.enabled = true;
            o.hedge.afterSec = 0;
        },
        "hedge_after_sec: must be positive, got 0");
    refused(
        [](serving::FleetOptions &o) {
            o.autoscale.enabled = true;
            o.autoscale.maxExtraReplicas = 2;
            o.autoscale.checkIntervalSec = 0;
        },
        "autoscale_check_interval_sec");
    refused(
        [](serving::FleetOptions &o) {
            o.reoffer.enabled = true;
            o.reoffer.delaySec = -1;
        },
        "reoffer_delay_sec: must be non-negative, got -1");
    refused(
        [](serving::FleetOptions &o) { o.admission.slackFactor = kNaN; },
        "admission_slack_factor: must be finite, got nan");
    refused([](serving::FleetOptions &o) { o.retry.timeoutSec = -1; },
            "fleet retry timeout_sec");
}

TEST(NegativeArrivals, SpecDomainsAreRefused)
{
    const std::vector<serving::QosTier> tiers(1);
    const auto refused = [&](auto &&tweak, const char *key) {
        serving::ArrivalSpec spec;
        spec.ratePerSec = 100;
        tweak(spec);
        expectError([&] { serving::generateArrivals(spec, tiers); },
                    ErrorCode::ConfigValidation, key);
    };
    refused([](serving::ArrivalSpec &s) { s.ratePerSec = kNaN; },
            "rate_per_sec");
    refused([](serving::ArrivalSpec &s) { s.horizonSec = kInf; },
            "horizon_sec: must be finite, got inf");
    refused([](serving::ArrivalSpec &s) { s.burstFactor = 0.5; },
            "burst_factor: must be at least 1, got 0.5");
    refused([](serving::ArrivalSpec &s) { s.burstDuty = 2; },
            "burst_duty: must be in [0, 1], got 2");
    // Finite but huge offered loads: arrival ids would reach the
    // re-offer ids, long before the arrival vector fits in memory.
    refused([](serving::ArrivalSpec &s) { s.ratePerSec = 1e300; },
            "reach the re-offer id base");
    refused(
        [](serving::ArrivalSpec &s) {
            s.ratePerSec = double(serving::kReofferIdBase);
            s.horizonSec = 1;
        },
        "reach the re-offer id base");
}

TEST(NegativeLatencyModel, UnusableCurvesAreRefused)
{
    using serving::BatchLatencyModel;
    expectError([] { BatchLatencyModel::linear(0, 0.001, 4); },
                ErrorCode::ConfigValidation, "positive base");
    expectError([] { BatchLatencyModel::linear(0.01, -1, 4); },
                ErrorCode::ConfigValidation, "slope");
    expectError([] { BatchLatencyModel::linear(0.01, 0.001, 0); },
                ErrorCode::ConfigValidation, "batch >= 1");
    expectError([] { BatchLatencyModel::fromPoints({}); },
                ErrorCode::ConfigValidation, "at least one point");
    expectError([] { BatchLatencyModel::fromPoints({{0, 0.1}}); },
                ErrorCode::ConfigValidation, "batch 0");
    expectError(
        [] { BatchLatencyModel::fromPoints({{1, 0.2}, {2, 0.1}}); },
        ErrorCode::ConfigValidation, "non-decreasing");
    expectError(
        [] { BatchLatencyModel::fromPoints({{2, 0.1}, {2, 0.2}}); },
        ErrorCode::ConfigValidation, "distinct");
    expectError([] { BatchLatencyModel::denseAnchors(0); },
                ErrorCode::ConfigValidation, "max batch");
    const runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto resnet = [](unsigned b) {
        return graph::zoo::resnet50Graph(b);
    };
    expectError(
        [&] { BatchLatencyModel::fromGraph(session, resnet, {}, 1.0); },
        ErrorCode::ConfigValidation, "0 anchors");
    expectError(
        [&] { BatchLatencyModel::fromGraph(session, resnet, {1}, 0); },
        ErrorCode::ConfigValidation, "at 0 GHz");
}

TEST(NegativeZoo, CnnBuildersRefuseZeroBatch)
{
    using namespace graph::zoo;
    expectError([] { resnet50Graph(0); }, ErrorCode::ConfigValidation,
                "resnet50 batch: must be positive, got 0");
    expectError([] { vgg16Graph(0); }, ErrorCode::ConfigValidation,
                "vgg16 batch");
    expectError([] { mobilenetV2Graph(0); }, ErrorCode::ConfigValidation,
                "mobilenet_v2 batch");
    expectError([] { gestureNetGraph(0); }, ErrorCode::ConfigValidation,
                "gesture_net batch");
}

TEST(NegativeZoo, BertRefusesDegenerateDims)
{
    using namespace graph::zoo;
    expectError([] { bertBaseGraph(0); }, ErrorCode::ConfigValidation,
                "bert_base batch: must be positive");
    expectError([] { bertLargeGraph(1, 0); }, ErrorCode::ConfigValidation,
                "bert_large seq_len");
    expectError([] { bertGraph("b", 1, 8, 0, 1, 1, 16); },
                ErrorCode::ConfigValidation, "b hidden");
    expectError([] { bertGraph("b", 1, 8, 64, 1, 0, 16); },
                ErrorCode::ConfigValidation, "b heads");
    expectError([] { bertGraph("b", 1, 8, 64, 1, 5, 16); },
                ErrorCode::ConfigValidation, "heads 5 must divide hidden 64");
}

TEST(NegativeZoo, ChainBuildersRefuseZeroDims)
{
    using namespace graph::zoo;
    expectError([] { maskRcnn(0); }, ErrorCode::ConfigValidation,
                "mask_rcnn batch");
    expectError([] { wideDeep(0); }, ErrorCode::ConfigValidation,
                "wide_and_deep batch");
    expectError([] { lstm(1, 0); }, ErrorCode::ConfigValidation,
                "lstm seq_len");
    expectError([] { lstm(1, 8, 64, 0); }, ErrorCode::ConfigValidation,
                "lstm hidden");
    expectError([] { siameseTracker(0); }, ErrorCode::ConfigValidation,
                "siamese_tracker batch");
    expectError([] { pointNet(1, 0); }, ErrorCode::ConfigValidation,
                "pointnet points");
    expectError([] { slamFrontend(0); }, ErrorCode::ConfigValidation,
                "slam_frontend points");
}

TEST(NegativeDecoder, DegenerateDimsAreRefused)
{
    graph::DecoderConfig cfg;
    cfg.heads = 5; // does not divide 768
    expectError([&] { graph::prefillGraph(cfg, 16); },
                ErrorCode::ConfigValidation, "heads 5 must divide");
    cfg = graph::DecoderConfig{};
    cfg.batch = 0;
    expectError([&] { graph::decodeGraph(cfg, 16); },
                ErrorCode::ConfigValidation, "batch 0");
    cfg = graph::DecoderConfig{};
    expectError([&] { graph::prefillGraph(cfg, 0); },
                ErrorCode::ConfigValidation, "prompt_len 0");
    expectError([&] { graph::decodeGraph(cfg, 0); },
                ErrorCode::ConfigValidation, "ctx 0");
}

TEST(NegativeTraining, ZeroChipsAndDomainsAreRefused)
{
    const cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.stepSecondsPerChip = 0.1;
    job.gradientBytes = 1 << 20;
    job.samplesPerChipStep = 32;
    const resilience::FaultSchedule faults;
    const resilience::RetryPolicy retry;
    const auto mode = resilience::DegradedMode::ContinueDegraded;
    expectError([&] { cluster::stepSeconds(job, cl, 0); },
                ErrorCode::ConfigValidation, "at least one chip");
    expectError(
        [&] {
            cluster::stepSecondsWithFaults(job, cl, 0, faults, retry,
                                           mode);
        },
        ErrorCode::ConfigValidation, "at least one chip");

    const auto elastic = [&](const cluster::TrainingJob &j,
                             unsigned chips,
                             const resilience::RetryPolicy &r,
                             const cluster::ElasticOptions &o) {
        return [&, chips] {
            cluster::runElastic(j, cl, chips, 4, faults, r, mode, o);
        };
    };
    expectError(elastic(job, 0, retry, {}), ErrorCode::ConfigValidation,
                "at least one chip");
    cluster::TrainingJob nan_job = job;
    nan_job.stepSecondsPerChip = kNaN;
    expectError(elastic(nan_job, 16, retry, {}),
                ErrorCode::ConfigValidation,
                "training job step_seconds_per_chip");
    resilience::RetryPolicy slow = retry;
    slow.backoffCapSec = -1;
    expectError(elastic(job, 16, slow, {}), ErrorCode::ConfigValidation,
                "retry backoff_cap_sec");
    cluster::ElasticOptions o;
    o.failoverRestartSec = -1;
    expectError(elastic(job, 16, retry, o), ErrorCode::ConfigValidation,
                "elastic failover_restart_sec");
    o = cluster::ElasticOptions{};
    o.checkpoint.intervalSec = 0;
    expectError(elastic(job, 16, retry, o), ErrorCode::ConfigValidation,
                "elastic checkpoint interval_sec");

    cluster::PipelineJob pipe;
    pipe.stages = 0;
    expectError([&] { cluster::pipelineStepSeconds(pipe); },
                ErrorCode::ConfigValidation, "stages: must be positive");
    pipe = cluster::PipelineJob{};
    pipe.microBatches = 0;
    expectError([&] { cluster::pipelineBubbleFraction(pipe); },
                ErrorCode::ConfigValidation, "micro_batches");
}

TEST(NegativeResilience, FaultAndCheckpointDomainsAreRefused)
{
    resilience::FaultSpec spec;
    spec.horizonSec = -1;
    expectError([&] { resilience::FaultSchedule::generate(spec); },
                ErrorCode::ConfigValidation,
                "fault spec horizon_sec: must be non-negative, got -1");

    resilience::CorrelatedFaultSpec cspec;
    cspec.horizonSec = -1;
    expectError([&] { resilience::generateCorrelated(cspec); },
                ErrorCode::ConfigValidation, "horizon_sec");
    cspec = resilience::CorrelatedFaultSpec{};
    cspec.topology.replicas = 8;
    cspec.topology.replicasPerRack = 0;
    expectError([&] { resilience::generateCorrelated(cspec); },
                ErrorCode::ConfigValidation, "replicas_per_rack");
    cspec = resilience::CorrelatedFaultSpec{};
    cspec.background.stragglerFraction = 2;
    expectError([&] { resilience::generateCorrelated(cspec); },
                ErrorCode::ConfigValidation,
                "background straggler_fraction");

    expectError(
        [] { resilience::timeWithCheckpointRestart(-1, 0, {}); },
        ErrorCode::ConfigValidation, "non-negative inputs");
    resilience::CheckpointPolicy on;
    on.enabled = true;
    on.intervalSec = 0;
    expectError(
        [&] { resilience::timeWithCheckpointRestart(10, 0.1, on); },
        ErrorCode::ConfigValidation, "checkpoint interval_sec");
}

TEST(NegativeTiles, VectorLayerSearchIsRefused)
{
    compiler::AutoTiler tiler(arch::makeCoreConfig(arch::CoreVersion::Max));
    expectError([&] { tiler.search(model::Layer::batchNorm("bn", 100)); },
                ErrorCode::ConfigValidation, "GEMM-like");
}

TEST(NegativeCoreConfig, EveryBoundedFieldIsChecked)
{
    arch::CoreConfig cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    cfg.dispatchPerCycle = 0;
    expectError([&] { cfg.validate(); }, ErrorCode::ConfigValidation,
                "core ascend-lite dispatch_per_cycle: must be positive, "
                "got 0");
}

TEST(NegativeCoreConfig, ZeroClockRejectedOnLoad)
{
    arch::CoreConfig cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    cfg.clockGhz = 0;
    expectError([&] { cfg.validate(); }, ErrorCode::ConfigValidation,
                "clock");
}

TEST(NegativeThreads, MalformedBudgetIsRefused)
{
    // Reads the budget only: no pool is built.
    const char *was = std::getenv("ASCEND_THREADS");
    const std::string saved = was ? was : "";
    for (const char *bad : {"4x", "-1", "+2", " 3", "1.5", "four"}) {
        ASSERT_EQ(::setenv("ASCEND_THREADS", bad, 1), 0);
        expectError([] { runtime::ThreadPool::configuredThreads(); },
                    ErrorCode::ConfigValidation,
                    "ASCEND_THREADS='" + std::string(bad) + "'");
    }
    ASSERT_EQ(::setenv("ASCEND_THREADS", "0", 1), 0);
    EXPECT_EQ(runtime::ThreadPool::configuredThreads(), 1u);
    ASSERT_EQ(::setenv("ASCEND_THREADS", "3", 1), 0);
    EXPECT_EQ(runtime::ThreadPool::configuredThreads(), 3u);
    if (was)
        ::setenv("ASCEND_THREADS", saved.c_str(), 1);
    else
        ::unsetenv("ASCEND_THREADS");
}

/** The spelling of an unset variable in the OutsideInput table. */
const std::string kUnset = "<unset>";

/**
 * One value from outside the program: an ASCEND_* variable or a
 * command-line flag, read as the program reads it. @p read returns
 * what the text parsed to (empty where the site keeps it private).
 */
struct OutsideValue
{
    std::string name;
    std::function<std::string(const std::string &text)> read;
    std::vector<std::pair<std::string, std::string>> accepted;
    std::vector<std::string> malformed;
};

/** A row reading variable @p name through @p reader. */
OutsideValue
variable(const std::string &name, std::function<std::string()> reader,
         std::vector<std::pair<std::string, std::string>> accepted,
         std::vector<std::string> malformed)
{
    const auto read = [name, reader](const std::string &text) {
        if (text == kUnset)
            ::unsetenv(name.c_str());
        else
            ::setenv(name.c_str(), text.c_str(), 1);
        return reader();
    };
    return {name, read, std::move(accepted), std::move(malformed)};
}

/** bench::chaosHarness on @p args: parses its seed, runs nothing. */
std::string
chaosSeedParse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    EXPECT_FALSE(bench::chaosHarness(int(argv.size()), argv.data(), 5, {}));
    return "";
}

TEST(OutsideInput, EveryVariableAndFlagFailsClosed)
{
    // Every variable is restored afterwards; no pool is built.
    const std::vector<std::string> names = {
        "ASCEND_THREADS", "ASCEND_TRACE",
        "ASCEND_FAULT_PROFILE", "ASCEND_SURROGATE",
        "ASCEND_SURROGATE_ERR", "ASCEND_SURROGATE_SPOT",
        "ASCEND_FAULT_SEED", "ASCEND_UPDATE_GOLDEN", "ASCEND_SIM_STATS",
        "ASCEND_CHAOS_SEED"};
    std::map<std::string, std::string> saved;
    for (const std::string &n : names) {
        if (const char *v = std::getenv(n.c_str()))
            saved[n] = v;
        ::unsetenv(n.c_str());
    }

    const std::string hw =
        std::to_string(std::max(std::thread::hardware_concurrency(), 1u));
    const auto text = [](const auto &v) { return fieldText(v); };
    const auto surrogate = [] {
        return surrogate::SurrogateOptions::fromEnv();
    };
    const std::vector<std::string> not_bool = {"yes", "2", "on", "-1"};
    const std::vector<std::pair<std::string, std::string>> switches = {
        {kUnset, "false"}, {"", "false"},    {"0", "false"},
        {"1", "true"},     {"true", "true"}, {"false", "false"}};
    const std::vector<OutsideValue> table = {
        variable("ASCEND_THREADS",
                 [] {
                     return std::to_string(
                         runtime::ThreadPool::configuredThreads());
                 },
                 {{kUnset, hw}, {"", hw}, {"0", "1"}, {"1", "1"},
                  {"3", "3"}},
                 {"true", "false", "-1", "abc", "4294967296"}),
        variable("ASCEND_TRACE",
                 [] {
                     return envValue<std::string>("ASCEND_TRACE")
                         .value_or("-");
                 },
                 {{kUnset, "-"}, {"", "-"}, {"t.json", "t.json"}}, {}),
        // Any text parses; bench_serving refuses an unknown profile
        // name at start-up (ctest refusal_fault_profile).
        variable("ASCEND_FAULT_PROFILE",
                 [] {
                     return envValue<std::string>("ASCEND_FAULT_PROFILE")
                         .value_or("rack");
                 },
                 {{kUnset, "rack"}, {"", "rack"}, {"power", "power"}}, {}),
        variable("ASCEND_SURROGATE",
                 [&] { return text(surrogate().enabled); }, switches,
                 not_bool),
        variable("ASCEND_SURROGATE_ERR",
                 [&] {
                     const auto o = surrogate();
                     return o.enabled ? text(o.errBudget) : "off";
                 },
                 {{kUnset, "off"}, {"", "off"}, {"1", "1"}, {"0.5", "0.5"}},
                 {"0", "-1", "abc", "true", "false", "nan", "inf"}),
        variable("ASCEND_SURROGATE_SPOT",
                 [&] { return text(surrogate().spotCheckPeriod); },
                 {{kUnset, "64"}, {"", "64"}, {"0", "0"}, {"1", "1"}},
                 {"-3", "abc", "true", "false", "1.5"}),
        variable("ASCEND_FAULT_SEED",
                 [&] {
                     return text(envValue<std::uint64_t>("ASCEND_FAULT_SEED")
                                     .value_or(17));
                 },
                 {{kUnset, "17"}, {"", "17"}, {"0", "0"}, {"1", "1"}},
                 {"abc", "-1", "true", "false", "1.5"}),
        variable("ASCEND_UPDATE_GOLDEN",
                 [&] {
                     return text(envValue<bool>("ASCEND_UPDATE_GOLDEN")
                                     .value_or(false));
                 },
                 switches, not_bool),
        variable("ASCEND_SIM_STATS",
                 [&] {
                     return text(envValue<bool>("ASCEND_SIM_STATS")
                                     .value_or(false));
                 },
                 switches, not_bool),
        variable("ASCEND_CHAOS_SEED", [] { return chaosSeedParse({}); },
                 {{kUnset, ""}, {"", ""}, {"0", ""}, {"1", ""}},
                 {"abc", "-1", "true", "false"}),
        {"--batch",
         [&](const std::string &t) {
             return text(parseValue<unsigned>("--batch", t));
         },
         {{"0", "0"}, {"1", "1"}},
         {"", "abc", "-1", "true", "false", "4294967296"}},
        {"--density",
         [&](const std::string &t) {
             return text(parseValue<double>(fraction("--density"), t));
         },
         {{"0", "0"}, {"1", "1"}, {"0.5", "0.5"}},
         {"", "abc", "-1", "2", "1e9", "true", "false", "nan"}},
        {"--seed",
         [](const std::string &t) { return chaosSeedParse({"--seed", t}); },
         {{"0", ""}, {"1", ""}, {"18446744073709551615", ""}},
         {"", "abc", "-1", "true", "false", "18446744073709551616"}},
    };

    for (const OutsideValue &row : table) {
        for (const auto &[spelling, want] : row.accepted) {
            std::string got;
            EXPECT_NO_THROW(got = row.read(spelling))
                << row.name << " '" << spelling << "'";
            EXPECT_EQ(got, want) << row.name << " '" << spelling << "'";
        }
        for (const std::string &bad : row.malformed)
            expectError([&] { row.read(bad); },
                        ErrorCode::ConfigValidation,
                        row.name + "='" + bad + "'");
        if (row.name.rfind("ASCEND_", 0) == 0)
            ::unsetenv(row.name.c_str());
    }
    for (const auto &[n, v] : saved)
        ::setenv(n.c_str(), v.c_str(), 1);
}

} // namespace
