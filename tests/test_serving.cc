/**
 * @file
 * Tests of the fleet serving simulator: arrival synthesis, batch
 * latency curves, admission control and deadline shedding, hedged
 * retries, replica failover, autoscaling, the request conservation
 * law, crash-consistent halt/resume byte-equality, and the
 * observability surface.
 */

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "resilience/checkpoint.hh"
#include "resilience/fault_domain.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"
#include "serving/fleet.hh"
#include "soc/training_soc.hh"

using namespace ascend;
using resilience::CorrelatedFaultSpec;
using resilience::FaultKind;
using resilience::FaultSchedule;
using resilience::FaultSpec;
using serving::ArrivalSpec;
using serving::BatchLatencyModel;
using serving::FleetOptions;
using serving::FleetResult;
using serving::QosTier;
using serving::Request;

namespace {

/** 2 ms base + 0.5 ms per request, batches up to 8. */
BatchLatencyModel
testModel()
{
    return BatchLatencyModel::linear(2e-3, 5e-4, 8);
}

std::vector<QosTier>
testTiers(double deadline_sec = 0.05)
{
    QosTier premium;
    premium.name = "premium";
    premium.deadlineSec = 2.0 * deadline_sec;
    premium.share = 0.25;
    premium.sheddable = false;
    premium.reservedSlots = 2;
    QosTier standard;
    standard.name = "standard";
    standard.deadlineSec = deadline_sec;
    standard.share = 0.75;
    standard.sheddable = true;
    return {premium, standard};
}

ArrivalSpec
testArrivals(double load, double horizon_sec = 0.5)
{
    ArrivalSpec arr;
    arr.seed = 29;
    arr.horizonSec = horizon_sec;
    arr.ratePerSec =
        load * testModel().saturationRequestsPerSec(2);
    return arr;
}

/** Exactly one CorePermanent event per core inside the horizon. */
FaultSpec
oneDeathPerCore(unsigned cores, double horizon_sec)
{
    FaultSpec spec;
    spec.seed = 13;
    spec.horizonSec = horizon_sec;
    spec.cores = cores;
    spec.corePermanentPerSec = 1.0 / horizon_sec;
    return spec;
}

FleetResult
run(double load, const FleetOptions &options,
    const FaultSpec &faults = {}, double horizon_sec = 0.5)
{
    const std::vector<QosTier> tiers = testTiers();
    return serving::runFleet(
        serving::generateArrivals(testArrivals(load, horizon_sec),
                                  tiers),
        tiers, testModel(), FaultSchedule::generate(faults), options);
}

FleetOptions
baseOptions()
{
    FleetOptions o;
    o.replicas = 2;
    o.retry.timeoutSec = 1e-3;
    o.retry.backoffBaseSec = 1e-4;
    return o;
}

/** Like run(), but against an explicit (e.g. correlated) schedule. */
FleetResult
runSched(double load, const FleetOptions &options,
         const FaultSchedule &faults, double horizon_sec = 0.5,
         const BatchLatencyModel *brownout_model = nullptr)
{
    const std::vector<QosTier> tiers = testTiers();
    return serving::runFleet(
        serving::generateArrivals(testArrivals(load, horizon_sec),
                                  tiers),
        tiers, testModel(), faults, options, brownout_model);
}

/** One whole-rack CorePermanent strike at @p at_sec, plus optional
 *  straggler background — all four replicas in a single rack. */
FaultSchedule
rackStrike(double at_sec, double straggler_fraction = 0)
{
    CorrelatedFaultSpec spec;
    spec.seed = 11;
    spec.horizonSec = 0.5;
    spec.topology.replicas = 4;
    spec.topology.replicasPerRack = 4;
    spec.rackStrikeAtSec = at_sec;
    spec.rackStrikeKind = FaultKind::CorePermanent;
    spec.background.stragglerFraction = straggler_fraction;
    spec.background.stragglerSlowdown = 4.0;
    return resilience::generateCorrelated(spec);
}

std::string
tempDir(const char *test)
{
    return ::testing::TempDir() + "ascend_serving_" + test;
}

} // namespace

// ------------------------------------------------------- workload

TEST(ServingWorkload, ArrivalsAreDeterministicSortedAndComplete)
{
    const std::vector<QosTier> tiers = testTiers();
    const ArrivalSpec spec = testArrivals(1.0);
    const std::vector<Request> a = serving::generateArrivals(spec, tiers);
    const std::vector<Request> b = serving::generateArrivals(spec, tiers);

    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrivalSec, b[i].arrivalSec);
        EXPECT_EQ(a[i].tier, b[i].tier);
        EXPECT_LT(a[i].tier, tiers.size());
        EXPECT_GE(a[i].arrivalSec, 0.0);
        EXPECT_LT(a[i].arrivalSec, spec.horizonSec);
        if (i) {
            EXPECT_GE(a[i].arrivalSec, a[i - 1].arrivalSec);
        }
    }

    // The mean rate is honored within quasi-periodic slack.
    const double expected = spec.ratePerSec * spec.horizonSec;
    EXPECT_NEAR(double(a.size()), expected, expected * 0.05 + 2.0);

    // Both tiers are represented roughly per their shares.
    std::size_t premium = 0;
    for (const Request &r : a)
        premium += r.tier == 0;
    EXPECT_GT(premium, a.size() / 8);
    EXPECT_LT(premium, a.size() / 2);
}

TEST(ServingWorkload, BurstsReshapeButPreserveMeanRate)
{
    const std::vector<QosTier> tiers = testTiers();
    ArrivalSpec calm = testArrivals(1.0, 1.0);
    ArrivalSpec bursty = calm;
    bursty.burstFactor = 4.0;
    bursty.burstPeriodSec = 0.2;
    bursty.burstDuty = 0.25;

    const std::vector<Request> a = serving::generateArrivals(calm, tiers);
    const std::vector<Request> b =
        serving::generateArrivals(bursty, tiers);
    ASSERT_FALSE(b.empty());
    EXPECT_NEAR(double(b.size()), double(a.size()),
                double(a.size()) * 0.05 + 2.0);

    // The burst window [0, duty*period) holds far more than its
    // uniform share.
    std::size_t in_burst = 0;
    for (const Request &r : b) {
        const double phase = r.arrivalSec -
                             bursty.burstPeriodSec *
                                 std::floor(r.arrivalSec /
                                            bursty.burstPeriodSec);
        in_burst += phase < bursty.burstDuty * bursty.burstPeriodSec;
    }
    EXPECT_GT(double(in_burst), 0.4 * double(b.size()));

    EXPECT_NE(serving::fingerprint(calm), serving::fingerprint(bursty));
    EXPECT_NE(serving::fingerprint(testTiers(0.05)),
              serving::fingerprint(testTiers(0.06)));
}

TEST(ServingWorkload, ReplayTraceAssignsTiersDeterministically)
{
    const std::vector<QosTier> tiers = testTiers();
    const std::vector<double> times = {0.0, 0.01, 0.02, 0.5};
    const std::vector<Request> a = serving::replayTrace(times, tiers, 9);
    const std::vector<Request> b = serving::replayTrace(times, tiers, 9);
    ASSERT_EQ(a.size(), times.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrivalSec, times[i]);
        EXPECT_EQ(a[i].id, i);
        EXPECT_EQ(a[i].tier, b[i].tier);
        EXPECT_LT(a[i].tier, tiers.size());
    }
}

// -------------------------------------------------- latency model

TEST(ServingLatencyModel, InterpolatesClampsAndFingerprints)
{
    const BatchLatencyModel m = BatchLatencyModel::fromPoints(
        {{1, 1e-3}, {4, 2.2e-3}, {8, 4e-3}});
    EXPECT_DOUBLE_EQ(m.latencySeconds(1), 1e-3);
    EXPECT_DOUBLE_EQ(m.latencySeconds(4), 2.2e-3);
    EXPECT_DOUBLE_EQ(m.latencySeconds(8), 4e-3);
    // Midpoints interpolate linearly; out-of-range clamps.
    EXPECT_NEAR(m.latencySeconds(2), 1e-3 + (2.2e-3 - 1e-3) / 3.0,
                1e-12);
    EXPECT_DOUBLE_EQ(m.latencySeconds(0), 1e-3);
    EXPECT_DOUBLE_EQ(m.latencySeconds(100), 4e-3);
    EXPECT_EQ(m.maxBatch(), 8u);
    EXPECT_NEAR(m.saturationRequestsPerSec(3), 3.0 * 8.0 / 4e-3,
                1e-9);

    EXPECT_EQ(m.fingerprint(),
              BatchLatencyModel::fromPoints(
                  {{1, 1e-3}, {4, 2.2e-3}, {8, 4e-3}})
                  .fingerprint());
    EXPECT_NE(m.fingerprint(), testModel().fingerprint());
}

TEST(ServingLatencyModel, ChipSimCurveIsMonotoneAndByteStable)
{
    soc::TrainingSoc soc910;
    runtime::SimSession session(soc910.coreConfig());
    const auto builder = [](unsigned batch) {
        return graph::toNetwork(graph::zoo::gestureNetGraph(batch));
    };
    const BatchLatencyModel a = BatchLatencyModel::fromNetwork(
        session, builder, {1, 2}, session.config().clockGhz);
    ASSERT_EQ(a.points().size(), 2u);
    EXPECT_GT(a.latencySeconds(1), 0.0);
    EXPECT_GE(a.latencySeconds(2), a.latencySeconds(1));

    // A second session re-derives the identical curve (SimCache).
    runtime::SimSession again(soc910.coreConfig());
    const BatchLatencyModel b = BatchLatencyModel::fromNetwork(
        again, builder, {1, 2}, again.config().clockGhz);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ServingLatencyModel, DenseAnchorsCoverEveryOctave)
{
    EXPECT_EQ(BatchLatencyModel::denseAnchors(32),
              (std::vector<unsigned>{1, 2, 3, 4, 5, 6, 7, 8, 10, 12,
                                     14, 16, 20, 24, 28, 32}));
    EXPECT_EQ(BatchLatencyModel::denseAnchors(1),
              std::vector<unsigned>{1});
    EXPECT_EQ(BatchLatencyModel::denseAnchors(9),
              (std::vector<unsigned>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
    // Strictly increasing and ending exactly at max_batch, whatever
    // the bound.
    const std::vector<unsigned> a =
        BatchLatencyModel::denseAnchors(100);
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LT(a[i - 1], a[i]);
    EXPECT_EQ(a.back(), 100u);
}

TEST(ServingLatencyModel, SurrogateDenseCurveIsMonotone)
{
    // The PR-7 limitation this closes: anchors stopped at batch 8
    // because every extra anchor cost a full exact simulation. With
    // the surrogate tier a 16-anchor curve through batch 32 is
    // affordable, and the whole interpolated curve must still be
    // monotone — at every integer batch, not just at the anchors
    // fromPoints validates.
    soc::TrainingSoc soc910;
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    runtime::SimSession session(soc910.coreConfig(), {},
                                std::make_shared<runtime::SimCache>(),
                                {}, sur);
    const auto builder = [](unsigned batch) {
        return graph::toNetwork(graph::zoo::gestureNetGraph(batch));
    };
    const std::vector<unsigned> anchors =
        BatchLatencyModel::denseAnchors(32);
    ASSERT_GE(anchors.size(), 6u);
    const BatchLatencyModel m = BatchLatencyModel::fromNetwork(
        session, builder, anchors, session.config().clockGhz);
    ASSERT_EQ(m.points().size(), anchors.size());
    double prev = 0;
    for (unsigned b = 1; b <= m.maxBatch(); ++b) {
        const double t = m.latencySeconds(b);
        EXPECT_GE(t, prev) << "batch " << b;
        prev = t;
    }
}

// ------------------------------------------------------ the fleet

TEST(ServingFleet, UnderloadCompletesEverythingInDeadline)
{
    const FleetResult r = run(0.4, baseOptions());
    EXPECT_GT(r.offered, 0u);
    EXPECT_EQ(r.admitted, r.offered);
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.goodput, r.offered);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.latencies.size(), r.completed);
    EXPECT_GT(r.p50, 0.0);
    EXPECT_LE(r.p50, r.p99);
    EXPECT_LE(r.p99, r.p999);
}

TEST(ServingFleet, RunIsDeterministicAndThreadCountInvariant)
{
    std::string reports[2];
    const unsigned threads[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        runtime::ScopedThreadPoolSize scope(threads[i]);
        reports[i] =
            run(1.5, baseOptions(), oneDeathPerCore(2, 0.5)).report();
    }
    EXPECT_FALSE(reports[0].empty());
    EXPECT_EQ(reports[0], reports[1]);
}

TEST(ServingFleet, SheddingBoundsTailWhereUngovernedDiverges)
{
    FleetOptions shed = baseOptions();
    FleetOptions noshed = baseOptions();
    noshed.admission.enabled = false;

    const FleetResult governed = run(2.0, shed);
    const FleetResult ungoverned = run(2.0, noshed);

    // Conservation: every request completes or is shed, never lost.
    EXPECT_EQ(governed.completed + governed.shed, governed.offered);
    EXPECT_GT(governed.shed, 0u);
    EXPECT_EQ(ungoverned.completed, ungoverned.offered);
    EXPECT_EQ(ungoverned.shed, 0u);

    // The governed tail is bounded by deadline + one full batch (a
    // request dispatched just before its deadline still rides one
    // batch); the ungoverned tail diverges past it.
    const double bound = testTiers()[0].deadlineSec +
                         testModel().latencySeconds(8);
    EXPECT_LE(governed.p99, bound);
    EXPECT_GT(ungoverned.p99, bound);
    EXPECT_GT(governed.goodput, ungoverned.goodput);
}

TEST(ServingFleet, QueueCapacityShedsOutright)
{
    FleetOptions o = baseOptions();
    o.admission.queueCapacity = 4;
    const FleetResult r = run(2.0, o);
    EXPECT_GT(r.shed, 0u);
    EXPECT_EQ(r.completed + r.shed, r.offered);
}

TEST(ServingFleet, FailoverReplacesDeadReplicasAndRetriesRequests)
{
    FleetOptions o = baseOptions();
    o.warmSpares = 2;
    o.failoverSec = 5e-3;
    const FleetResult r =
        run(0.6, o, oneDeathPerCore(2, 0.5));

    EXPECT_EQ(r.replicaFailures, 2u);
    EXPECT_EQ(r.failovers, 2u);
    EXPECT_EQ(r.completed + r.shed, r.offered);
    // In-flight requests of the dead replicas were re-dispatched.
    EXPECT_GT(r.retries, 0u);
    EXPECT_NE(r.eventLog.find("failover replica"), std::string::npos);
}

TEST(ServingFleet, SpareExhaustionDegradesButConserves)
{
    FleetOptions o = baseOptions();
    o.warmSpares = 1; // two deaths, one spare
    const FleetResult r =
        run(0.6, o, oneDeathPerCore(2, 0.5));
    EXPECT_EQ(r.replicaFailures, 2u);
    EXPECT_EQ(r.failovers, 1u);
    EXPECT_NE(r.eventLog.find("dead"), std::string::npos);
    EXPECT_EQ(r.completed + r.shed, r.offered);
}

TEST(ServingFleet, FleetDeathShedsRemainingLoadInsteadOfHanging)
{
    FleetOptions o = baseOptions();
    o.warmSpares = 0;
    FaultSpec spec = oneDeathPerCore(2, 0.5);
    spec.horizonSec = 0.05; // both replicas die early
    spec.corePermanentPerSec = 1.0 / spec.horizonSec;
    const FleetResult r = run(0.6, o, spec);
    EXPECT_EQ(r.replicaFailures, 2u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.completed + r.shed, r.offered);
    EXPECT_GT(r.shed, 0u);
    EXPECT_NE(r.eventLog.find("fleet dead"), std::string::npos);
}

TEST(ServingFleet, HedgingDuplicatesStragglersWithoutDoubleCounting)
{
    FleetOptions o = baseOptions();
    o.replicas = 4;
    o.hedge.enabled = true;
    // Above every healthy batch latency, below the straggled ones:
    // only the dragging replica's dispatches get hedged.
    o.hedge.afterSec = 8e-3;

    // Seed 4 marks exactly one of the four replicas a straggler.
    FaultSpec spec;
    spec.seed = 4;
    spec.horizonSec = 0.5;
    spec.cores = 4;
    spec.stragglerFraction = 0.5;
    spec.stragglerSlowdown = 4.0;

    const FleetResult r = run(1.2, o, spec);
    EXPECT_GT(r.hedges, 0u);
    // First answer wins; the losing copy never double-counts.
    EXPECT_EQ(r.completed + r.shed, r.offered);
    EXPECT_NE(r.eventLog.find("hedge replica"), std::string::npos);

    FleetOptions off = o;
    off.hedge.enabled = false;
    const FleetResult base = run(1.2, off, spec);
    EXPECT_EQ(base.hedges, 0u);
    // Hedging recovers goodput the straggler was eating.
    EXPECT_GE(r.goodput, base.goodput);
}

TEST(ServingFleet, AutoscalerAddsReplicasUnderSustainedBacklog)
{
    FleetOptions o = baseOptions();
    o.autoscale.enabled = true;
    o.autoscale.checkIntervalSec = 5e-3;
    o.autoscale.queueDepthPerReplica = 8;
    o.autoscale.spinUpSec = 0.02;
    o.autoscale.maxExtraReplicas = 2;

    const FleetResult scaled = run(2.0, o);
    EXPECT_GT(scaled.autoscaleUps, 0u);
    EXPECT_NE(scaled.eventLog.find("autoscale to"), std::string::npos);

    const FleetResult fixed = run(2.0, baseOptions());
    EXPECT_GT(scaled.goodput, fixed.goodput);
}

// -------------------------------- correlated faults and defenses

TEST(ServingDefenses, RackStrikeKillingPrimaryAndHedgeConserves)
{
    // The whole fleet shares one rack; the strike takes primary and
    // hedge copies in the same correlated event. First-answer-wins
    // dedup plus failure retries must still conserve every request,
    // wherever the strike lands relative to in-flight dispatches.
    FleetOptions o = baseOptions();
    o.replicas = 4;
    o.warmSpares = 2;
    o.failoverSec = 5e-3;
    o.hedge.enabled = true;
    o.hedge.afterSec = 8e-3; // above healthy, below 4x straggled

    std::uint64_t hedges = 0;
    for (double at : {0.05, 0.1, 0.15, 0.2}) {
        const FleetResult r =
            runSched(1.2, o, rackStrike(at, 0.5));
        EXPECT_EQ(r.completed + r.shed, r.offered)
            << "strike at " << at;
        EXPECT_EQ(r.replicaFailures, 4u) << "strike at " << at;
        EXPECT_EQ(r.failovers, 2u) << "strike at " << at;
        hedges += r.hedges;
    }
    // The straggler background forced hedges in at least one run, so
    // the dedup path genuinely ran under the strikes.
    EXPECT_GT(hedges, 0u);
}

TEST(ServingDefenses, BreakerIsolatesFlappingReplicas)
{
    FaultSpec flap;
    flap.seed = 21;
    flap.horizonSec = 0.5;
    flap.cores = 2;
    flap.coreTransientPerSec = 40.0;
    flap.coreRepairSec = 1e-3;

    FleetOptions o = baseOptions();
    o.health.enabled = true;
    o.health.cooloffSec = 0.02;
    const FleetResult r = run(1.0, o, flap);
    EXPECT_GT(r.breakerTrips, 0u);
    EXPECT_NE(r.eventLog.find("breaker open replica"),
              std::string::npos);
    EXPECT_EQ(r.completed + r.shed, r.offered);

    FleetOptions off = baseOptions();
    const FleetResult base = run(1.0, off, flap);
    EXPECT_EQ(base.breakerTrips, 0u);
}

TEST(ServingDefenses, ReoffersCountAsFreshOfferedRequests)
{
    FleetOptions o = baseOptions();
    o.reoffer.enabled = true;
    o.reoffer.delaySec = 2e-3;
    o.reoffer.maxReoffers = 2;

    const FleetResult loop = run(2.0, o);
    const FleetResult open = run(2.0, baseOptions());

    EXPECT_GT(loop.reoffered, 0u);
    // Every re-offer is a fresh offered request; conservation holds
    // over the inflated stream.
    EXPECT_EQ(loop.completed + loop.shed, loop.offered);
    EXPECT_EQ(loop.offered, open.offered + loop.reoffered);
    EXPECT_EQ(open.reoffered, 0u);
}

TEST(ServingDefenses, BrownoutTradesQualityForGoodput)
{
    const BatchLatencyModel cheap =
        BatchLatencyModel::linear(5e-4, 1e-4, 8);
    FleetOptions o = baseOptions();
    o.brownout.enabled = true;
    o.brownout.enterQueueDepthPerReplica = 16;
    o.brownout.exitQueueDepthPerReplica = 2;
    o.brownout.minResidencySec = 5e-3;

    const std::vector<QosTier> tiers = testTiers();
    const std::vector<Request> arrivals = serving::generateArrivals(
        testArrivals(2.0), tiers);
    const FaultSchedule none = FaultSchedule::generate(FaultSpec{});
    const FleetResult degraded = serving::runFleet(
        arrivals, tiers, testModel(), none, o, &cheap);
    const FleetResult crisp = serving::runFleet(
        arrivals, tiers, testModel(), none, baseOptions());

    EXPECT_GT(degraded.brownoutEntries, 0u);
    EXPECT_GT(degraded.brownoutCompleted, 0u);
    EXPECT_GE(degraded.brownoutCompleted, degraded.brownoutGoodput);
    EXPECT_GT(degraded.brownoutSec, 0.0);
    EXPECT_NE(degraded.eventLog.find("brownout enter"),
              std::string::npos);
    EXPECT_NE(degraded.eventLog.find("brownout exit"),
              std::string::npos);
    EXPECT_EQ(degraded.completed + degraded.shed, degraded.offered);
    // The cheaper curve answers more requests in time.
    EXPECT_GT(degraded.goodput, crisp.goodput);

    // Without the enable bit the cheap model is inert: byte-identical
    // to the plain run.
    FleetOptions inert = baseOptions();
    const FleetResult plain = serving::runFleet(
        arrivals, tiers, testModel(), none, inert, &cheap);
    EXPECT_EQ(plain.report(), crisp.report());
}

FleetOptions
allDefenses()
{
    FleetOptions o = baseOptions();
    o.replicas = 4;
    o.warmSpares = 2;
    o.failoverSec = 5e-3;
    o.hedge.enabled = true;
    o.hedge.afterSec = 8e-3;
    o.retry.jitterFraction = 0.5;
    o.retry.jitterSeed = 77;
    o.health.enabled = true;
    o.health.cooloffSec = 0.02;
    o.brownout.enabled = true;
    o.brownout.enterQueueDepthPerReplica = 8;
    o.brownout.exitQueueDepthPerReplica = 2;
    o.brownout.minResidencySec = 5e-3;
    o.reoffer.enabled = true;
    o.reoffer.delaySec = 2e-3;
    return o;
}

TEST(ServingDefenses, DefendedRunIsThreadCountInvariant)
{
    const BatchLatencyModel cheap =
        BatchLatencyModel::linear(5e-4, 1e-4, 8);
    std::string reports[2];
    const unsigned threads[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        runtime::ScopedThreadPoolSize scope(threads[i]);
        reports[i] = runSched(2.0, allDefenses(), rackStrike(0.1, 0.5),
                              0.5, &cheap)
                         .report();
    }
    EXPECT_FALSE(reports[0].empty());
    EXPECT_EQ(reports[0], reports[1]);
}

TEST(ServingDefenses, DefendedHaltResumeMatchesUninterrupted)
{
    const BatchLatencyModel cheap =
        BatchLatencyModel::linear(5e-4, 1e-4, 8);
    const std::string ref_dir = tempDir("def_resume_ref");
    const std::string dir = tempDir("def_resume");
    FleetOptions base = allDefenses();
    base.checkpointIntervalSec = 5e-3;
    const FaultSchedule faults = rackStrike(0.1, 0.5);

    std::filesystem::remove_all(ref_dir);
    FleetOptions ref_options = base;
    ref_options.checkpointDir = ref_dir;
    const FleetResult ref =
        runSched(2.0, ref_options, faults, 0.5, &cheap);
    ASSERT_FALSE(ref.halted);
    ASSERT_GT(ref.checkpointsSaved, 2u);

    unsigned total_events = 0;
    for (char c : ref.eventLog)
        if (c == '\n')
            ++total_events;
    ASSERT_GE(total_events, 3u);

    for (unsigned halt : {1u, total_events / 2, total_events - 1}) {
        std::filesystem::remove_all(dir);
        FleetOptions victim = base;
        victim.checkpointDir = dir;
        victim.haltAfterEvents = halt;
        const FleetResult dead =
            runSched(2.0, victim, faults, 0.5, &cheap);
        EXPECT_TRUE(dead.halted);

        FleetOptions resume = base;
        resume.checkpointDir = dir;
        const FleetResult done =
            runSched(2.0, resume, faults, 0.5, &cheap);
        EXPECT_FALSE(done.halted);
        EXPECT_EQ(done.report(), ref.report())
            << "halt after event " << halt;
    }
    std::filesystem::remove_all(ref_dir);
    std::filesystem::remove_all(dir);
}

TEST(ServingDefenses, FingerprintReactsToEveryDefenseKnob)
{
    const std::vector<QosTier> tiers = testTiers();
    const std::vector<Request> arrivals =
        serving::generateArrivals(testArrivals(1.0), tiers);
    const BatchLatencyModel model = testModel();
    const BatchLatencyModel cheap =
        BatchLatencyModel::linear(5e-4, 1e-4, 8);
    const FaultSchedule none = FaultSchedule::generate(FaultSpec{});
    const FleetOptions base = baseOptions();
    const std::string id = serving::runFingerprint(
        arrivals, tiers, model, none, base);

    FleetOptions o = base;
    o.health.enabled = true;
    EXPECT_NE(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, o));
    o = base;
    o.reoffer.enabled = true;
    EXPECT_NE(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, o));
    o = base;
    o.retry.jitterFraction = 0.5;
    EXPECT_NE(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, o));

    // The brownout model only enters the identity when the ladder is
    // armed — a dormant pointer is identity-neutral.
    EXPECT_EQ(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, base, &cheap));
    o = base;
    o.brownout.enabled = true;
    const std::string armed = serving::runFingerprint(
        arrivals, tiers, model, none, o, &cheap);
    EXPECT_NE(id, armed);
    EXPECT_NE(armed, serving::runFingerprint(arrivals, tiers, model,
                                             none, o, &model));

    // A correlated schedule never aliases the independent schedule of
    // its own meta spec.
    const FaultSchedule corr = rackStrike(0.1);
    const FaultSchedule indep = FaultSchedule::generate(corr.spec());
    EXPECT_NE(serving::runFingerprint(arrivals, tiers, model, corr,
                                      base),
              serving::runFingerprint(arrivals, tiers, model, indep,
                                      base));
}

// ------------------------------------------- kill/resume contract

TEST(ServingFleet, HaltResumeMatchesUninterrupted)
{
    const std::string ref_dir = tempDir("resume_ref");
    const std::string dir = tempDir("resume");
    FleetOptions base = baseOptions();
    base.warmSpares = 1;
    base.hedge.enabled = true;
    base.hedge.afterSec = 4e-3;
    base.autoscale.enabled = true;
    base.autoscale.checkIntervalSec = 5e-3;
    base.autoscale.queueDepthPerReplica = 8;
    base.autoscale.spinUpSec = 0.02;
    base.autoscale.maxExtraReplicas = 1;
    base.checkpointIntervalSec = 5e-3;

    // The reference checkpoints like the victims do — the engine
    // logs one event line per save, so byte-equality requires the
    // same persistence config.
    std::filesystem::remove_all(ref_dir);
    FleetOptions ref_options = base;
    ref_options.checkpointDir = ref_dir;
    const FaultSpec spec = oneDeathPerCore(2, 0.5);
    const FleetResult ref = run(1.2, ref_options, spec);
    ASSERT_FALSE(ref.halted);
    ASSERT_GT(ref.checkpointsSaved, 2u);

    unsigned total_events = 0;
    for (char c : ref.eventLog)
        if (c == '\n')
            ++total_events;
    ASSERT_GE(total_events, 3u);

    for (unsigned halt : {1u, total_events / 2, total_events - 1}) {
        std::filesystem::remove_all(dir);
        FleetOptions victim = base;
        victim.checkpointDir = dir;
        victim.haltAfterEvents = halt;
        const FleetResult dead = run(1.2, victim, spec);
        EXPECT_TRUE(dead.halted);

        FleetOptions resume = base;
        resume.checkpointDir = dir;
        const FleetResult done = run(1.2, resume, spec);
        EXPECT_FALSE(done.halted);
        EXPECT_EQ(done.report(), ref.report())
            << "halt after event " << halt;
        // A completed run removes its checkpoint slot.
        EXPECT_FALSE(std::filesystem::exists(
            resilience::CheckpointStore(dir, "serving").path()));
    }
    std::filesystem::remove_all(ref_dir);
    std::filesystem::remove_all(dir);
}

TEST(ServingFleet, ForeignCheckpointIsIgnoredNotResumed)
{
    const std::string dir = tempDir("foreign");
    std::filesystem::remove_all(dir);

    FleetOptions victim = baseOptions();
    victim.checkpointDir = dir;
    victim.checkpointIntervalSec = 5e-3;
    victim.haltAfterEvents = 1;
    const FleetResult dead = run(1.5, victim);
    ASSERT_TRUE(dead.halted);
    ASSERT_TRUE(std::filesystem::exists(
        resilience::CheckpointStore(dir, "serving").path()));

    // A different configuration (different fingerprint) must cold
    // start, not adopt the stale blob.
    FleetOptions other = baseOptions();
    other.checkpointDir = dir;
    other.checkpointIntervalSec = 5e-3;
    other.retry.maxRetries = 7;
    const FleetResult resumed = run(1.5, other);

    FleetOptions fresh = baseOptions();
    fresh.checkpointDir = tempDir("foreign_fresh");
    std::filesystem::remove_all(fresh.checkpointDir);
    fresh.checkpointIntervalSec = 5e-3;
    fresh.retry.maxRetries = 7;
    const FleetResult clean = run(1.5, fresh);
    EXPECT_EQ(resumed.report(), clean.report());

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(fresh.checkpointDir);
}

// ------------------------------------------------- observability

TEST(ServingFleet, CountersChargeIntoSimStats)
{
    runtime::resetCounters();

    const FleetResult r =
        run(1.5, baseOptions(), oneDeathPerCore(2, 0.5));
    EXPECT_EQ(runtime::counterValue("serving runs"), 1u);
    EXPECT_EQ(runtime::counterValue("serving offered"), r.offered);
    EXPECT_EQ(runtime::counterValue("serving shed"), r.shed);
    EXPECT_EQ(runtime::counterValue("serving goodput"), r.goodput);
    EXPECT_EQ(runtime::counterValue("serving retries"), r.retries);
    EXPECT_EQ(runtime::counterValue("serving failures"),
              r.replicaFailures);

    const std::string report =
        runtime::simStatsReport(runtime::SimCache::Stats{}, 1);
    EXPECT_NE(report.find("serving runs"), std::string::npos);
    EXPECT_NE(report.find("serving goodput"), std::string::npos);

    // A halted run is a crash stand-in: nothing may be charged.
    runtime::resetCounters();
    const std::string dir = tempDir("charge_halt");
    std::filesystem::remove_all(dir);
    FleetOptions halt = baseOptions();
    halt.checkpointDir = dir;
    halt.haltAfterEvents = 1;
    run(1.5, halt, oneDeathPerCore(2, 0.5));
    EXPECT_EQ(runtime::counterValue("serving runs"), 0u);
    runtime::resetCounters();
    std::filesystem::remove_all(dir);
}

TEST(ServingFleet, FingerprintSeparatesInputsAndOptions)
{
    const std::vector<QosTier> tiers = testTiers();
    const std::vector<Request> arrivals =
        serving::generateArrivals(testArrivals(1.0), tiers);
    const BatchLatencyModel model = testModel();
    const FaultSchedule none = FaultSchedule::generate(FaultSpec{});
    const FleetOptions base = baseOptions();

    const std::string id = serving::runFingerprint(
        arrivals, tiers, model, none, base);
    EXPECT_EQ(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, base));

    FleetOptions other = base;
    other.hedge.enabled = !base.hedge.enabled;
    EXPECT_NE(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, other));

    FleetOptions deadline = base;
    deadline.retry.giveUpAfterSeconds = 123.0;
    EXPECT_NE(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, deadline));

    // Persistence knobs are identity-neutral: a resumed run with a
    // different checkpoint dir or halt point must match.
    FleetOptions persist = base;
    persist.checkpointDir = "/somewhere/else";
    persist.haltAfterEvents = 5;
    EXPECT_EQ(id, serving::runFingerprint(arrivals, tiers, model,
                                          none, persist));

    const FaultSchedule faults =
        FaultSchedule::generate(oneDeathPerCore(2, 0.5));
    EXPECT_NE(id, serving::runFingerprint(arrivals, tiers, model,
                                          faults, base));
}
