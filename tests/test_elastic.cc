/**
 * @file
 * Tests of the elastic cluster-run engine: the fault-free bit-for-bit
 * contract, thread-count invariance, failover / shrink / rollback /
 * speculation behavior, crash-consistent CheckpointStore round-trips
 * and refusals, in-process kill/resume equivalence, and the
 * observability surface (tracer spans, SIM_STATS counters).
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/collective.hh"
#include "cluster/elastic_run.hh"
#include "common/atomic_file.hh"
#include "obs/tracer.hh"
#include "resilience/fault_domain.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"

using namespace ascend;
using cluster::ClusterConfig;
using cluster::ElasticOptions;
using cluster::ElasticRunResult;
using cluster::TrainingJob;
using resilience::CheckpointStore;
using resilience::DegradedMode;
using resilience::FaultSchedule;
using resilience::FaultSpec;
using resilience::RetryPolicy;
using resilience::RunCheckpoint;

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
    EXPECT_EQ(r.counters, resilience::ElasticCounters{});

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
    EXPECT_NE(cluster::fingerprint(base), cluster::fingerprint(spares));

    // Run-identity must separate fault seeds (a resumed run may
    // never adopt a checkpoint from a different schedule).
    FaultSpec a = chaosSpec();
    FaultSpec b = chaosSpec();
    b.seed = 4;
    const std::string id_a = cluster::runFingerprint(
        testJob(), testCluster(), 64, 20, FaultSchedule::generate(a),
        RetryPolicy{}, DegradedMode::ContinueDegraded, base);
    const std::string id_b = cluster::runFingerprint(
        testJob(), testCluster(), 64, 20, FaultSchedule::generate(b),
        RetryPolicy{}, DegradedMode::ContinueDegraded, base);
    EXPECT_NE(id_a, id_b);
}

// ------------------------------------------------ CheckpointStore

namespace {

RunCheckpoint
sampleCheckpoint()
{
    RunCheckpoint s;
    s.runId = "run-A";
    s.sequence = 3;
    s.nextStep = 17;
    s.simTimeSec = 1.25;
    s.activeNodes = {0u, 5u, 0xffffffffu, 9u};
    s.sparesLeft = 1;
    s.lastCheckpointStep = 15;
    s.lastCheckpointSec = 1.0;
    s.nodeEventCursor = 4;
    s.eccEventCursor = 2;
    s.counters.failovers = 1;
    s.counters.rollbacks = 2;
    s.counters.replayedSteps = 5;
    s.counters.checkpointsSaved = 3;
    s.eventLog = "[e00001] t=0 failover\n[e00002] t=1 rollback\n";
    return s;
}

void
spit(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), std::streamsize(data.size()));
}

} // namespace

TEST(CheckpointStore, RoundTripIsExact)
{
    const CheckpointStore store(tempDir("roundtrip"));
    const RunCheckpoint s = sampleCheckpoint();
    ASSERT_TRUE(store.save(s));

    RunCheckpoint out;
    ASSERT_TRUE(store.load(out, "run-A"));
    EXPECT_TRUE(out == s);

    store.remove();
    RunCheckpoint gone;
    EXPECT_FALSE(store.load(gone, "run-A"));
}

TEST(CheckpointStore, RefusesForeignRunAndLeavesOutUntouched)
{
    const CheckpointStore store(tempDir("foreign"));
    ASSERT_TRUE(store.save(sampleCheckpoint()));

    RunCheckpoint out;
    out.nextStep = 999;
    EXPECT_FALSE(store.load(out, "run-B"));
    EXPECT_EQ(out.nextStep, 999u); // refusal never touches out
}

TEST(CheckpointStore, RefusesCorruptTruncatedAndForeignFiles)
{
    const CheckpointStore store(tempDir("corrupt"));
    ASSERT_TRUE(store.save(sampleCheckpoint()));
    const std::string blob = readFile(store.path()).value();
    ASSERT_GT(blob.size(), 16u);

    // A flipped bit anywhere fails the checksum.
    std::string flipped = blob;
    flipped[flipped.size() / 2] =
        char(flipped[flipped.size() / 2] ^ 0x40);
    spit(store.path(), flipped);
    RunCheckpoint out;
    EXPECT_FALSE(store.load(out, "run-A"));

    // Truncation at any point is a clean refusal.
    for (std::size_t cut = 0; cut < blob.size(); cut += 13) {
        spit(store.path(), blob.substr(0, cut));
        EXPECT_FALSE(store.load(out, "run-A"));
    }

    // A foreign magic is rejected before anything is parsed.
    std::string foreign = blob;
    foreign[0] = 'X';
    spit(store.path(), foreign);
    EXPECT_FALSE(store.load(out, "run-A"));

    // The intact file still loads (the refusals were non-destructive
    // reads, and save() goes through an atomic rename).
    spit(store.path(), blob);
    EXPECT_TRUE(store.load(out, "run-A"));
    EXPECT_TRUE(out == sampleCheckpoint());
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
        EXPECT_FALSE(
            std::filesystem::exists(CheckpointStore(dir).path()));
    }
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------ observability

TEST(ElasticRun, CountersChargeIntoSimStats)
{
    runtime::resetResilienceTotals();

    const ElasticRunResult r = runScenario(chaosSpec(), chaosOptions());
    const runtime::ResilienceCounters totals =
        runtime::resilienceTotals();
    EXPECT_EQ(totals.elasticRuns, 1u);
    EXPECT_EQ(totals.failovers, r.counters.failovers);
    EXPECT_EQ(totals.rollbacks, r.counters.rollbacks);
    EXPECT_EQ(totals.replayedSteps, r.counters.replayedSteps);
    EXPECT_EQ(totals.checkpointsSaved, r.counters.checkpointsSaved);

    const std::string report =
        runtime::simStatsReport(runtime::SimCache::Stats{}, 1);
    EXPECT_NE(report.find("elastic runs"), std::string::npos);
    EXPECT_NE(report.find("elastic rollbacks"), std::string::npos);

    // A halted run is a crash stand-in: nothing may be charged.
    runtime::resetResilienceTotals();
    ElasticOptions halt = chaosOptions();
    halt.haltAfterEvents = 2;
    runScenario(chaosSpec(), halt);
    EXPECT_EQ(runtime::resilienceTotals().elasticRuns, 0u);
    runtime::resetResilienceTotals();
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
