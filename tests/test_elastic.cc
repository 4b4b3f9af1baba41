/**
 * @file
 * Tests of the elastic cluster-run engine: the fault-free bit-for-bit
 * contract, thread-count invariance, failover / shrink / rollback /
 * speculation behavior, in-process kill/resume equivalence, refusal
 * of another run's checkpoint, the golden fuzz grid, and the
 * observability surface (tracer spans, SIM_STATS counters).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/collective.hh"
#include "cluster/elastic_run.hh"
#include "common/atomic_file.hh"
#include "common/codec.hh"
#include "obs/tracer.hh"
#include "resilience/fault_domain.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"

#include "golden_test.hh"

using namespace ascend;
using cluster::ClusterConfig;
using cluster::ElasticOptions;
using cluster::ElasticRunResult;
using cluster::TrainingJob;
using resilience::DegradedMode;
using resilience::FaultSchedule;
using resilience::FaultSpec;
using resilience::RetryPolicy;

namespace {

TrainingJob
testJob()
{
    TrainingJob job;
    job.stepSecondsPerChip = 0.05;
    job.gradientBytes = 51 * kMiB;
    job.samplesPerChipStep = 256;
    return job;
}

ClusterConfig
testCluster()
{
    ClusterConfig cluster;
    cluster.servers = 8; // 64 chips
    return cluster;
}

/** Exactly one permanent failure per node inside [0, 1). */
FaultSpec
nodeDeathSpec()
{
    FaultSpec spec;
    spec.seed = 7;
    spec.horizonSec = 1.0;
    spec.cores = 8; // node scope: one target per server
    spec.corePermanentPerSec = 1.0;
    return spec;
}

/** Exactly one uncorrectable ECC event inside [0, 1). */
FaultSpec
eccSpec()
{
    FaultSpec spec;
    spec.seed = 11;
    spec.horizonSec = 1.0;
    spec.eccUncorrectablePerSec = 1.0;
    return spec;
}

/** A bit of everything — the chaos soup bench_chaos also stirs. */
FaultSpec
chaosSpec()
{
    FaultSpec spec;
    spec.seed = 3;
    spec.horizonSec = 600.0;
    spec.cores = 8;
    spec.links = 8;
    spec.corePermanentPerSec = 0.15;
    spec.linkDownPerSec = 1.0;
    spec.linkDegradePerSec = 0.5;
    spec.eccUncorrectablePerSec = 0.4;
    spec.stragglerFraction = 0.25;
    spec.stragglerSlowdown = 1.6;
    return spec;
}

ElasticOptions
chaosOptions()
{
    ElasticOptions options;
    options.spareNodes = 2;
    options.stateBytes = 256 * kMiB;
    options.failoverRestartSec = 2.0;
    options.reshardRestartSec = 4.0;
    options.checkpoint.enabled = true;
    options.checkpoint.intervalSec = 1e6;
    options.checkpoint.saveSec = 0.5;
    options.checkpoint.restartSec = 1.0;
    options.checkpointEverySteps = 5;
    return options;
}

ElasticRunResult
runScenario(const FaultSpec &spec, const ElasticOptions &options,
            unsigned steps = 20)
{
    return cluster::runElastic(testJob(), testCluster(), 64, steps,
                               FaultSchedule::generate(spec),
                               RetryPolicy{},
                               DegradedMode::ContinueDegraded, options);
}

std::string
tempDir(const char *test)
{
    return ::testing::TempDir() + "ascend_elastic_" + test;
}

} // namespace

TEST(ElasticRun, FaultFreeBitwiseEqualsClosedForm)
{
    const TrainingJob job = testJob();
    const ClusterConfig cluster = testCluster();
    const FaultSchedule none = FaultSchedule::generate(FaultSpec{});
    ASSERT_TRUE(none.empty());

    const ElasticRunResult r = cluster::runElastic(
        job, cluster, 64, 25, none, RetryPolicy{},
        DegradedMode::ContinueDegraded, ElasticOptions{});

    // The engine must perform the identical float operations as the
    // closed form: the same per-step value accumulated in the same
    // order, with zero elastic adjustments.
    double expect = 0;
    const double step = cluster::stepSeconds(job, cluster, 64);
    for (int i = 0; i < 25; ++i)
        expect += step;
    EXPECT_EQ(r.seconds, expect);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.stepsDone, 25u);
    EXPECT_EQ(r.finalChips, 64u);
    EXPECT_TRUE(r.eventLog.empty());
    EXPECT_EQ(r.counters, cluster::ElasticCounters{});

    // And bit-for-bit equal to the penalty-model run (which shares
    // the empty-schedule contract of stepSecondsWithFaults).
    const cluster::TrainingRunResult penalty =
        cluster::trainingRunWithFaults(
            job, cluster, 64, 25, none, RetryPolicy{},
            DegradedMode::ContinueDegraded,
            resilience::CheckpointPolicy{}, 0.0);
    EXPECT_EQ(r.seconds, penalty.seconds);
}

TEST(ElasticRun, ReportIsThreadCountInvariant)
{
    std::string reports[2];
    const unsigned threads[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        runtime::ScopedThreadPoolSize scope(threads[i]);
        reports[i] = runScenario(chaosSpec(), chaosOptions()).report();
    }
    EXPECT_FALSE(reports[0].empty());
    EXPECT_EQ(reports[0], reports[1]);
}

TEST(ElasticRun, FailoverConsumesSparesThenShrinks)
{
    // All 8 nodes die. With 8 warm spares the world never shrinks...
    ElasticOptions spares;
    spares.spareNodes = 8;
    const ElasticRunResult full = runScenario(nodeDeathSpec(), spares);
    EXPECT_TRUE(full.completed);
    EXPECT_EQ(full.counters.failovers, 8u);
    EXPECT_EQ(full.counters.sparesUsed, 8u);
    EXPECT_EQ(full.counters.shrinks, 0u);
    EXPECT_EQ(full.finalChips, 64u);
    EXPECT_NE(full.eventLog.find("failover"), std::string::npos);

    // ...with 2 the pool runs dry and the world shrinks elastically.
    ElasticOptions two;
    two.spareNodes = 2;
    const ElasticRunResult shrunk = runScenario(nodeDeathSpec(), two);
    EXPECT_TRUE(shrunk.completed);
    EXPECT_EQ(shrunk.counters.failovers, 2u);
    EXPECT_EQ(shrunk.counters.shrinks, 6u);
    EXPECT_EQ(shrunk.counters.spareExhausted, 6u);
    EXPECT_EQ(shrunk.finalChips, 16u);
    EXPECT_NE(shrunk.eventLog.find("shrink"), std::string::npos);
}

TEST(ElasticRun, WorldDeathFailStops)
{
    const ElasticRunResult r =
        runScenario(nodeDeathSpec(), ElasticOptions{});
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.finalNodes, 0u);
    EXPECT_EQ(r.finalChips, 0u);
    EXPECT_EQ(r.counters.shrinks, 8u);
    EXPECT_LT(r.stepsDone, 20u);
    EXPECT_NE(r.eventLog.find("world died"), std::string::npos);
}

TEST(ElasticRun, RollbackWithoutCheckpointsReplaysFromZero)
{
    const ElasticRunResult r =
        runScenario(eccSpec(), ElasticOptions{});
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.stepsDone, 20u);
    EXPECT_EQ(r.counters.rollbacks, 1u);
    // The single error strikes inside (0, 1): at least one step had
    // committed, and all of them were lost back to step zero.
    EXPECT_GE(r.counters.replayedSteps, 1u);
    EXPECT_NE(r.eventLog.find("rollback to step 0"),
              std::string::npos);
}

TEST(ElasticRun, CheckpointCadenceBoundsReplay)
{
    ElasticOptions options;
    options.checkpoint.enabled = true;
    options.checkpoint.intervalSec = 1e6; // step cadence only
    options.checkpoint.saveSec = 0.01;
    options.checkpoint.restartSec = 0.5;
    options.checkpointEverySteps = 2;
    const ElasticRunResult r = runScenario(eccSpec(), options);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.counters.rollbacks, 1u);
    // A checkpoint every 2 steps caps the loss below the cadence.
    EXPECT_LE(r.counters.replayedSteps, 1u);
    EXPECT_GT(r.counters.checkpointsSaved, 0u);
}

TEST(ElasticRun, SpeculationBoundsStragglerCost)
{
    FaultSpec spec;
    spec.seed = 5;
    spec.cores = 8;
    spec.stragglerFraction = 1.0;
    spec.stragglerSlowdown = 3.0;

    ElasticOptions slow;
    slow.speculation = false;
    const ElasticRunResult dragged = runScenario(spec, slow);

    const ElasticRunResult raced = runScenario(spec, ElasticOptions{});
    EXPECT_TRUE(raced.completed);
    // A retry-priced speculative copy beats a 3x straggler on every
    // one of the 20 steps.
    EXPECT_EQ(raced.counters.speculations, 20u);
    EXPECT_LT(raced.seconds, dragged.seconds);
    EXPECT_NE(raced.eventLog.find("speculate"), std::string::npos);
}

TEST(ElasticRun, RackCorrelatedStrikeKillsOneRackInOneStep)
{
    // A correlated schedule feeds the engine several node deaths at
    // one instant: the whole rack must fail over (or shrink) in a
    // single step, not be spread across the run like independent
    // deaths would be.
    resilience::CorrelatedFaultSpec cspec;
    cspec.seed = 7;
    cspec.horizonSec = 1.0;
    cspec.topology.replicas = 8; // node scope
    cspec.topology.replicasPerRack = 4;
    cspec.rackStrikeAtSec = 0.5;
    cspec.rackStrikeKind = resilience::FaultKind::CorePermanent;
    const FaultSchedule faults = resilience::generateCorrelated(cspec);
    ASSERT_EQ(faults.events().size(), 4u);
    for (const resilience::FaultEvent &e : faults.events())
        EXPECT_EQ(e.timeSec, 0.5);

    ElasticOptions spares;
    spares.spareNodes = 8;
    const ElasticRunResult full = cluster::runElastic(
        testJob(), testCluster(), 64, 20, faults, RetryPolicy{},
        DegradedMode::ContinueDegraded, spares);
    EXPECT_TRUE(full.completed);
    EXPECT_EQ(full.counters.failovers, 4u);
    EXPECT_EQ(full.counters.sparesUsed, 4u);
    EXPECT_EQ(full.finalChips, 64u);

    // All four failovers land at the same sim time.
    std::set<std::string> stamps;
    std::istringstream lines(full.eventLog);
    std::string line;
    while (std::getline(lines, line))
        if (line.find("failover") != std::string::npos)
            stamps.insert(line.substr(line.find("t="),
                                      line.find(' ', line.find("t=")) -
                                          line.find("t=")));
    EXPECT_EQ(stamps.size(), 1u) << full.eventLog;

    // With only two spares the same event exhausts the pool and
    // shrinks the remainder of the rack out of the world.
    ElasticOptions two;
    two.spareNodes = 2;
    const ElasticRunResult shrunk = cluster::runElastic(
        testJob(), testCluster(), 64, 20, faults, RetryPolicy{},
        DegradedMode::ContinueDegraded, two);
    EXPECT_TRUE(shrunk.completed);
    EXPECT_EQ(shrunk.counters.failovers, 2u);
    EXPECT_EQ(shrunk.counters.shrinks, 2u);
    EXPECT_EQ(shrunk.finalChips, 48u); // 6 nodes x 8 chips
}

TEST(ElasticRun, FingerprintSeparatesOptionsAndInputs)
{
    const ElasticOptions base;
    ElasticOptions spares = base;
    spares.spareNodes = 2;
    const auto id = [](const FaultSpec &spec, const ElasticOptions &o) {
        return cluster::runFingerprint(
            testJob(), testCluster(), 64, 20, FaultSchedule::generate(spec),
            RetryPolicy{}, DegradedMode::ContinueDegraded, o);
    };
    EXPECT_NE(id(chaosSpec(), base), id(chaosSpec(), spares));

    // Run-identity must separate fault seeds (a resumed run may
    // never adopt a checkpoint from a different schedule).
    FaultSpec b = chaosSpec();
    b.seed = 4;
    EXPECT_NE(id(chaosSpec(), base), id(b, base));
}

// --------------------------------------------- kill/resume contract

TEST(ElasticRun, HaltResumeMatchesUninterrupted)
{
    const std::string dir = tempDir("resume");
    const ElasticOptions base = chaosOptions();

    // The uninterrupted reference keeps checkpoints logical-only.
    const ElasticRunResult ref = runScenario(chaosSpec(), base, 40);
    ASSERT_TRUE(ref.completed);
    ASSERT_GT(ref.counters.rollbacks, 0u);

    for (unsigned halt : {1u, 9u, 30u}) {
        std::filesystem::remove_all(dir);
        ElasticOptions victim = base;
        victim.checkpointDir = dir;
        victim.haltAfterEvents = halt;
        const ElasticRunResult dead =
            runScenario(chaosSpec(), victim, 40);
        EXPECT_TRUE(dead.halted);
        EXPECT_FALSE(dead.completed);

        ElasticOptions resume = base;
        resume.checkpointDir = dir;
        const ElasticRunResult done =
            runScenario(chaosSpec(), resume, 40);
        EXPECT_TRUE(done.completed);
        EXPECT_EQ(done.report(), ref.report())
            << "halt after event " << halt;
        // A completed run removes its checkpoint slot.
        EXPECT_FALSE(std::filesystem::exists(dir + "/elastic.ckpt"));
    }
    std::filesystem::remove_all(dir);
}

TEST(ElasticRun, ForeignCheckpointIsIgnoredNotResumed)
{
    const std::string dir = tempDir("foreign");
    std::filesystem::remove_all(dir);

    ElasticOptions victim = chaosOptions();
    victim.checkpointDir = dir;
    victim.haltAfterEvents = 9;
    ASSERT_TRUE(runScenario(chaosSpec(), victim, 40).halted);
    ASSERT_TRUE(std::filesystem::exists(dir + "/elastic.ckpt"));

    // A different configuration (different fingerprint) must cold
    // start: every line of its log is emitted by this process, and
    // the report equals a run that never saw the stale file.
    ElasticOptions other = chaosOptions();
    other.spareNodes = 3;
    const ElasticRunResult clean = runScenario(chaosSpec(), other, 40);
    other.checkpointDir = dir;
    std::size_t emitted = 0;
    other.onEvent = [&](const std::string &) { ++emitted; };
    const ElasticRunResult resumed =
        runScenario(chaosSpec(), other, 40);
    EXPECT_EQ(resumed.report(), clean.report());
    EXPECT_EQ(emitted, std::size_t(std::count(clean.eventLog.begin(),
                                              clean.eventLog.end(),
                                              '\n')));
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------ golden fuzz grid

namespace {

/** The fuzz grid's axes, in row order. */
const char *const kFuzzFaults[] = {"none", "node+ecc", "rack"};
const char *const kFuzzOptions[] = {"logical", "disk-interval",
                                    "every-n", "no-ckpt+spares",
                                    "no-speculation"};

constexpr unsigned kFuzzSteps = 30;

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

/** Fault column @p kind of the grid over about two seconds. */
FaultSchedule
fuzzFaults(unsigned kind, std::uint64_t seed)
{
    const double horizon = 2.0;
    if (kind == 0)
        return FaultSchedule::generate(FaultSpec{});
    if (kind == 1) {
        FaultSpec spec;
        spec.seed = seed;
        spec.horizonSec = horizon;
        spec.cores = 8; // node scope
        spec.corePermanentPerSec = 1.5 / horizon;
        spec.eccUncorrectablePerSec = 2.0 / horizon;
        spec.stragglerFraction = 0.25;
        spec.stragglerSlowdown = 2.0;
        return FaultSchedule::generate(spec);
    }
    resilience::CorrelatedFaultSpec spec;
    spec.seed = seed;
    spec.horizonSec = horizon;
    spec.topology.replicas = 8; // node scope
    spec.topology.replicasPerRack = 4;
    spec.rackStrikeAtSec = 0.4 * horizon;
    spec.rackStrikeKind = resilience::FaultKind::CorePermanent;
    spec.background.eccUncorrectablePerSec = 1.0 / horizon;
    spec.background.stragglerFraction = 0.25;
    spec.background.stragglerSlowdown = 2.0;
    return resilience::generateCorrelated(spec);
}

/** Option column @p column of the grid; @p dir backs disk columns. */
ElasticOptions
fuzzOptions(unsigned column, const std::string &dir)
{
    ElasticOptions o;
    o.spareNodes = 1;
    o.stateBytes = 256 * kMiB;
    o.failoverRestartSec = 0.1;
    o.reshardRestartSec = 0.2;
    o.checkpoint.enabled = true;
    o.checkpoint.intervalSec = 0.3;
    o.checkpoint.saveSec = 0.02;
    o.checkpoint.restartSec = 0.1;
    if (column != 0)
        o.checkpointDir = dir;
    if (column == 2) {
        o.checkpoint.intervalSec = 1e6; // step cadence only
        o.checkpointEverySteps = 4;
    }
    if (column == 3) {
        o.checkpoint.enabled = false;
        o.spareNodes = 3;
    }
    if (column == 4)
        o.speculation = false;
    return o;
}

/**
 * One cell of the elastic fuzz grid: the hash of the finished run's
 * report, the hash of the checkpoint file a haltAfterEvents halt at
 * the run's midpoint leaves on disk (so the ASCCKPT bytes are pinned
 * too), and whether resuming from that file reproduces the report.
 */
std::string
elasticFuzzRow(unsigned fault_idx, unsigned column)
{
    const std::uint64_t seed = 2000 + 10 * fault_idx + column;
    const FaultSchedule faults = fuzzFaults(fault_idx, seed);
    const std::string dir = tempDir("fuzz");
    const ElasticOptions base = fuzzOptions(column, dir);
    const auto run = [&](const ElasticOptions &options) {
        return cluster::runElastic(testJob(), testCluster(), 64,
                                   kFuzzSteps, faults, RetryPolicy{},
                                   DegradedMode::ContinueDegraded,
                                   options);
    };

    std::filesystem::remove_all(dir);
    const ElasticRunResult ref = run(base);
    unsigned events = 0;
    for (char c : ref.eventLog)
        events += c == '\n';

    std::filesystem::remove_all(dir);
    ElasticOptions victim = base;
    victim.haltAfterEvents = std::max(1u, events / 2);
    run(victim);
    const std::optional<std::string> ckpt =
        readFile(dir + "/elastic.ckpt");
    const ElasticRunResult resumed = run(base);
    std::filesystem::remove_all(dir);

    return std::string("faults=") + kFuzzFaults[fault_idx] +
           " options=" + kFuzzOptions[column] +
           " steps=" + std::to_string(ref.stepsDone) +
           " chips=" + std::to_string(ref.finalChips) +
           " events=" + std::to_string(events) +
           " report=" + hex64(hashText(ref.report())) +
           " ckpt=" + (ckpt ? hex64(hashText(*ckpt)) : "none") +
           " resume=" +
           (resumed.report() == ref.report() ? "equal" : "differs");
}

} // namespace

/**
 * The fuzz rows are frozen in tests/golden/elastic_fuzz.txt: every
 * rewrite of the elastic engine or its checkpoint codec must
 * reproduce them bit for bit, reports and checkpoint bytes alike.
 * Regenerate after an intentional model change with
 *     ASCEND_UPDATE_GOLDEN=1 ./build/tests/test_elastic
 * and review the diff like any other code change.
 */
TEST(ElasticRun, ElasticFuzzMatchesGolden)
{
    const std::string path =
        std::string(ASCEND_GOLDEN_DIR) + "/elastic_fuzz.txt";
    std::string rows =
        "# runElastic report, midpoint-checkpoint hashes and resume\n"
        "# equality over a seeded faults x options grid\n"
        "# (tests/test_elastic.cc elasticFuzzRow).\n"
        "# Regenerate: ASCEND_UPDATE_GOLDEN=1 "
        "./build/tests/test_elastic\n";
    for (unsigned f = 0; f < std::size(kFuzzFaults); ++f)
        for (unsigned o = 0; o < std::size(kFuzzOptions); ++o)
            rows += elasticFuzzRow(f, o) + "\n";
    expectGolden(path, rows);
}

// ------------------------------------------------ observability

TEST(ElasticRun, CountersChargeIntoSimStats)
{
    runtime::resetCounters();

    const ElasticRunResult r = runScenario(chaosSpec(), chaosOptions());
    EXPECT_EQ(runtime::counterValue("elastic runs"), 1u);
    EXPECT_EQ(runtime::counterValue("elastic replayed_steps"),
              r.counters.replayedSteps);
    // Every listed counter is charged, under "elastic <key>".
    forEachField(
        [](const char *key, std::uint64_t v) {
            EXPECT_EQ(runtime::counterValue(std::string("elastic ") + key),
                      v)
                << key;
        },
        r.counters);

    const std::string report =
        runtime::simStatsReport(runtime::SimCache::Stats{}, 1);
    EXPECT_NE(report.find("elastic runs"), std::string::npos);
    EXPECT_NE(report.find("elastic rollbacks"), std::string::npos);

    // A halted run is a crash stand-in: nothing may be charged.
    runtime::resetCounters();
    ElasticOptions halt = chaosOptions();
    halt.haltAfterEvents = 2;
    runScenario(chaosSpec(), halt);
    EXPECT_EQ(runtime::counterValue("elastic runs"), 0u);
    runtime::resetCounters();
}

TEST(ElasticRun, RecoveryPhasesEmitTracerSpans)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.stop();
    tracer.start("");
    runScenario(chaosSpec(), chaosOptions());
    const std::string json = tracer.json();
    tracer.stop();

    EXPECT_NE(json.find("elastic.failover"), std::string::npos);
    EXPECT_NE(json.find("elastic.rollback"), std::string::npos);
    EXPECT_NE(json.find("elastic.checkpoint"), std::string::npos);
    // Cluster-domain track 2 is labeled for the trace viewer.
    EXPECT_NE(json.find("elastic recovery"), std::string::npos);
}
