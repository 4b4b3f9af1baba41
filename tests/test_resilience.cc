/**
 * @file
 * Tests of the fault-injection and resilience layer: schedule
 * determinism, the zero-fault bit-for-bit contract of every
 * fault-aware path (collectives, chip sim, DRAM ECC, SimSession),
 * recovery-policy arithmetic, and degraded-mode behavior.
 */

#include <cmath>
#include <initializer_list>

#include <gtest/gtest.h>

#include "cluster/fault_collective.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "memory/dram.hh"
#include "resilience/fault_schedule.hh"
#include "resilience/policy.hh"
#include "runtime/sim_session.hh"
#include "serving/workload.hh"
#include "soc/chip_sim.hh"

using namespace ascend;
using resilience::ChipFaultPlan;
using resilience::CheckpointPolicy;
using resilience::DegradedMode;
using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultSchedule;
using resilience::FaultSpec;
using resilience::RetryPolicy;

namespace {

FaultSpec
linkFaultSpec(double down_rate, double degrade_rate = 0)
{
    FaultSpec spec;
    spec.seed = 42;
    spec.horizonSec = 10.0;
    spec.links = 8;
    spec.linkDownPerSec = down_rate;
    spec.linkDegradePerSec = degrade_rate;
    return spec;
}

TEST(FaultSchedule, SameSeedSameSchedule)
{
    FaultSpec spec;
    spec.seed = 7;
    spec.cores = 16;
    spec.links = 4;
    spec.coreTransientPerSec = 3.0;
    spec.corePermanentPerSec = 0.5;
    spec.linkDownPerSec = 2.0;
    spec.stragglerFraction = 0.25;

    const FaultSchedule a = FaultSchedule::generate(spec);
    const FaultSchedule b = FaultSchedule::generate(spec);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].target, b.events()[i].target);
        EXPECT_EQ(a.events()[i].timeSec, b.events()[i].timeSec);
        EXPECT_EQ(a.events()[i].durationSec, b.events()[i].durationSec);
        EXPECT_EQ(a.events()[i].severity, b.events()[i].severity);
    }
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(FaultSchedule, DifferentSeedsDiffer)
{
    FaultSpec spec;
    spec.cores = 8;
    spec.coreTransientPerSec = 5.0;
    spec.seed = 1;
    const FaultSchedule a = FaultSchedule::generate(spec);
    spec.seed = 2;
    const FaultSchedule b = FaultSchedule::generate(spec);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    bool any_differs = a.events().size() != b.events().size();
    for (std::size_t i = 0;
         !any_differs && i < a.events().size(); ++i)
        any_differs = a.events()[i].timeSec != b.events()[i].timeSec;
    EXPECT_TRUE(any_differs);
}

TEST(FaultSchedule, ZeroRatesYieldEmptySchedule)
{
    FaultSpec spec;
    spec.cores = 32;
    spec.links = 32;
    EXPECT_TRUE(spec.empty());
    const FaultSchedule s = FaultSchedule::generate(spec);
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(ChipFaultPlan::fromSchedule(s, 32).empty());
}

TEST(FaultSchedule, EventsSortedAndWithinHorizon)
{
    FaultSpec spec;
    spec.cores = 8;
    spec.links = 8;
    spec.horizonSec = 2.0;
    spec.coreTransientPerSec = 4.0;
    spec.linkDownPerSec = 3.0;
    spec.linkDegradePerSec = 2.0;
    const FaultSchedule s = FaultSchedule::generate(spec);
    ASSERT_FALSE(s.empty());
    for (std::size_t i = 0; i < s.events().size(); ++i) {
        EXPECT_GE(s.events()[i].timeSec, 0.0);
        EXPECT_LT(s.events()[i].timeSec, spec.horizonSec);
        if (i) {
            EXPECT_LE(s.events()[i - 1].timeSec, s.events()[i].timeSec);
        }
    }
    // Per-target filters partition the schedule.
    std::size_t filtered = 0;
    for (unsigned c = 0; c < spec.cores; ++c)
        filtered += s.coreEvents(c).size();
    for (unsigned l = 0; l < spec.links; ++l)
        filtered += s.linkEvents(l).size();
    EXPECT_EQ(filtered, s.events().size());
}

TEST(FaultSchedule, StragglerFractionBounds)
{
    FaultSpec spec;
    spec.cores = 64;
    spec.stragglerFraction = 1.0; // every core is slow
    spec.stragglerSlowdown = 2.0;
    const FaultSchedule s = FaultSchedule::generate(spec);
    for (unsigned c = 0; c < spec.cores; ++c)
        EXPECT_EQ(s.stragglerFactor(c), 2.0);
    spec.stragglerFraction = 0.0;
    const FaultSchedule none = FaultSchedule::generate(spec);
    for (unsigned c = 0; c < spec.cores; ++c)
        EXPECT_EQ(none.stragglerFactor(c), 1.0);
}

TEST(Policy, BackoffGrowsAndSaturates)
{
    RetryPolicy p;
    p.backoffBaseSec = 1e-4;
    p.backoffMultiplier = 2.0;
    p.backoffCapSec = 5e-4;
    EXPECT_DOUBLE_EQ(resilience::retryDelaySeconds(p, 0), 1e-4);
    EXPECT_DOUBLE_EQ(resilience::retryDelaySeconds(p, 1), 2e-4);
    EXPECT_DOUBLE_EQ(resilience::retryDelaySeconds(p, 2), 4e-4);
    EXPECT_DOUBLE_EQ(resilience::retryDelaySeconds(p, 3), 5e-4); // cap
    EXPECT_DOUBLE_EQ(resilience::retryDelaySeconds(p, 30), 5e-4);
}

TEST(Policy, BackoffIsMonotoneAndSaturatesExactly)
{
    RetryPolicy p;
    p.backoffBaseSec = 1e-4;
    p.backoffMultiplier = 3.0;
    p.backoffCapSec = 0.25;

    // Property: non-decreasing in attempt, never above the cap.
    double prev = 0;
    for (unsigned a = 0; a < 64; ++a) {
        const double d = resilience::retryDelaySeconds(p, a);
        EXPECT_GE(d, prev);
        EXPECT_LE(d, p.backoffCapSec);
        prev = d;
    }

    // Huge attempt numbers saturate *exactly* at the cap: the growth
    // loop must stop at the crossing instead of multiplying 2^32
    // times into inf.
    for (unsigned a : {64u, 1u << 20, 0x80000000u, 0xffffffffu}) {
        const double d = resilience::retryDelaySeconds(p, a);
        EXPECT_FALSE(std::isinf(d));
        EXPECT_EQ(d, p.backoffCapSec);
    }

    // A non-growing multiplier keeps the base delay, even at the
    // largest attempt (no O(attempt) spin to no effect).
    p.backoffMultiplier = 1.0;
    EXPECT_EQ(resilience::retryDelaySeconds(p, 0xffffffffu), 1e-4);
    p.backoffMultiplier = 0.5;
    EXPECT_EQ(resilience::retryDelaySeconds(p, 0xffffffffu), 1e-4);

    // A base above the cap clamps from attempt zero on.
    p.backoffMultiplier = 2.0;
    p.backoffBaseSec = 1.0;
    p.backoffCapSec = 0.3;
    EXPECT_EQ(resilience::retryDelaySeconds(p, 0), 0.3);

    // A zero base stays zero forever.
    p.backoffBaseSec = 0.0;
    EXPECT_EQ(resilience::retryDelaySeconds(p, 1000), 0.0);
}

TEST(Policy, CumulativeRetryDelayIsExactAndClosedForm)
{
    RetryPolicy p;
    p.timeoutSec = 1e-3;
    p.backoffBaseSec = 1e-4;
    p.backoffMultiplier = 2.0;
    p.backoffCapSec = 5e-4;

    // Exactly the running sum of per-attempt delays.
    EXPECT_DOUBLE_EQ(resilience::retryCumulativeSeconds(p, 0), 0.0);
    double sum = 0;
    for (unsigned n = 0; n < 40; ++n) {
        sum += p.timeoutSec + resilience::retryDelaySeconds(p, n);
        EXPECT_NEAR(resilience::retryCumulativeSeconds(p, n + 1), sum,
                    1e-15 * double(n + 1));
    }

    // Closed-form over the saturated tail: astronomically many
    // attempts stay finite and linear in the cap, never an
    // O(attempts) loop or an overflow to inf.
    const double huge =
        resilience::retryCumulativeSeconds(p, 0xffffffffu);
    EXPECT_FALSE(std::isinf(huge));
    EXPECT_NEAR(huge,
                double(0xffffffffu) * (p.timeoutSec + p.backoffCapSec),
                1e-3 * huge);
}

TEST(Policy, DeadlineBudgetCapsRetriesAcrossTheKnobGrid)
{
    // Property sweep over cap saturation x deadline budget: the
    // number of permitted retries is exactly the largest n with
    // cumulative delay within the budget, retryPermitted agrees
    // attempt by attempt, and both respect maxRetries.
    const double caps[] = {5e-5, 5e-4, 1e-1};
    const double budgets[] = {0.0,  1e-4, 2e-3, 1e-2,
                              0.05, 1.0,  1e9};
    for (double cap : caps) {
        for (double budget : budgets) {
            RetryPolicy p;
            p.maxRetries = 6;
            p.timeoutSec = 3e-4;
            p.backoffBaseSec = 1e-4;
            p.backoffMultiplier = 2.0;
            p.backoffCapSec = cap;
            p.giveUpAfterSeconds = budget;

            const unsigned n = resilience::retriesWithinBudget(p);
            EXPECT_LE(n, p.maxRetries);
            if (budget <= 0.0) {
                // 0 disables the budget: maxRetries alone rules.
                EXPECT_EQ(n, p.maxRetries);
            } else {
                EXPECT_LE(resilience::retryCumulativeSeconds(p, n),
                          budget);
                if (n < p.maxRetries) {
                    EXPECT_GT(
                        resilience::retryCumulativeSeconds(p, n + 1),
                        budget);
                }
            }
            for (unsigned a = 0; a <= p.maxRetries + 2; ++a)
                EXPECT_EQ(resilience::retryPermitted(p, a), a < n)
                    << "cap " << cap << " budget " << budget
                    << " attempt " << a;
        }
    }
}

TEST(Policy, JitterOnlyShrinksAndPreservesClosedForms)
{
    RetryPolicy p;
    p.timeoutSec = 1e-3;
    p.backoffBaseSec = 1e-4;
    p.backoffMultiplier = 2.0;
    p.backoffCapSec = 5e-4;
    p.jitterFraction = 0.5;
    p.jitterSeed = 1234;

    // Property grid over (key, attempt): jitter only ever shrinks a
    // sleep, so retryCumulativeSeconds stays a valid upper bound on
    // any jittered schedule and the budget closed forms still hold.
    for (std::uint64_t key : std::initializer_list<std::uint64_t>{
             0, 7, 0xdeadbeef, serving::kReofferIdBase + 12}) {
        double jittered_sum = 0;
        double nominal_sum = 0;
        for (unsigned a = 0; a < 12; ++a) {
            const double nominal =
                resilience::retryDelaySeconds(p, a);
            const double jittered =
                resilience::retryDelaySecondsJittered(p, a, key);
            EXPECT_LE(jittered, nominal);
            EXPECT_GE(jittered,
                      nominal * (1.0 - p.jitterFraction));
            jittered_sum += p.timeoutSec + jittered;
            nominal_sum += p.timeoutSec + nominal;
            // Deterministic: same (policy, key, attempt) -> same bits.
            EXPECT_EQ(jittered, resilience::retryDelaySecondsJittered(
                                    p, a, key));
        }
        EXPECT_LE(jittered_sum,
                  resilience::retryCumulativeSeconds(p, 12));
        EXPECT_GE(jittered_sum,
                  nominal_sum - p.jitterFraction *
                                    (nominal_sum -
                                     12.0 * p.timeoutSec));
    }

    // Different keys de-synchronize: at least one attempt differs.
    bool differs = false;
    for (unsigned a = 0; a < 12 && !differs; ++a)
        differs = resilience::retryDelaySecondsJittered(p, a, 1) !=
                  resilience::retryDelaySecondsJittered(p, a, 2);
    EXPECT_TRUE(differs);

    // Fraction 0 (the default) is bit-identical to the nominal path.
    p.jitterFraction = 0;
    for (unsigned a = 0; a < 12; ++a)
        EXPECT_EQ(resilience::retryDelaySecondsJittered(p, a, 99),
                  resilience::retryDelaySeconds(p, a));

    // Fractions above 1 clamp: never a negative sleep.
    p.jitterFraction = 7.0;
    for (unsigned a = 0; a < 12; ++a)
        EXPECT_GE(resilience::retryDelaySecondsJittered(p, a, 3),
                  0.0);
}

TEST(Policy, TightDeadlineForbidsEvenTheFirstRetry)
{
    RetryPolicy p;
    p.maxRetries = 5;
    p.timeoutSec = 1e-3;
    p.backoffBaseSec = 1e-4;
    p.giveUpAfterSeconds = 5e-4; // below one attempt's cost
    EXPECT_EQ(resilience::retriesWithinBudget(p), 0u);
    EXPECT_FALSE(resilience::retryPermitted(p, 0));

    // A budget exactly at the first attempt's cost admits it: the
    // contract is "within", not "strictly under".
    p.giveUpAfterSeconds = p.timeoutSec + p.backoffBaseSec;
    EXPECT_EQ(resilience::retriesWithinBudget(p), 1u);
    EXPECT_TRUE(resilience::retryPermitted(p, 0));
    EXPECT_FALSE(resilience::retryPermitted(p, 1));
}

TEST(Policy, CheckpointRestartExactWithoutFaults)
{
    CheckpointPolicy off;
    // The no-fault, no-checkpoint case must be *exactly* the work
    // time, not work + 0.0-shaped noise.
    EXPECT_EQ(resilience::timeWithCheckpointRestart(123.456, 0.0, off),
              123.456);

    CheckpointPolicy on;
    on.enabled = true;
    on.intervalSec = 10;
    on.saveSec = 1;
    // Checkpoint overhead alone: one saveSec per interval of work.
    EXPECT_DOUBLE_EQ(
        resilience::timeWithCheckpointRestart(100.0, 0.0, on), 110.0);
    // Faults make it strictly worse; checkpoints bound the rework.
    const double faulty_on =
        resilience::timeWithCheckpointRestart(100.0, 0.01, on);
    const double faulty_off =
        resilience::timeWithCheckpointRestart(100.0, 0.01, off);
    EXPECT_GT(faulty_on, 110.0);
    EXPECT_GT(faulty_off, 100.0);
    EXPECT_LT(faulty_on, faulty_off); // checkpointing pays off here
}

TEST(FaultCollective, EmptyScheduleBitwiseEqualsFaultFree)
{
    const FaultSchedule none;
    const RetryPolicy retry;
    const Bytes bytes = 64 * kMiB;
    for (auto algo : {cluster::CollectiveAlgo::Ring,
                      cluster::CollectiveAlgo::HalvingDoubling,
                      cluster::CollectiveAlgo::Tree}) {
        for (unsigned n : {2u, 7u, 16u, 256u}) {
            const double expect = cluster::allreduceAlgoSeconds(
                algo, bytes, n, 12.5e9, 5e-6);
            const cluster::FaultyCollectiveResult r =
                cluster::allreduceWithFaults(
                    algo, bytes, n, 12.5e9, 5e-6, none, retry,
                    DegradedMode::ContinueDegraded);
            EXPECT_EQ(r.seconds, expect); // bit-for-bit
            EXPECT_EQ(r.penaltySeconds, 0.0);
            EXPECT_EQ(r.retries, 0u);
            EXPECT_TRUE(r.completed);
        }
    }
}

TEST(FaultCollective, EmptyScheduleHierarchicalBitwise)
{
    const FaultSchedule none;
    const RetryPolicy retry;
    cluster::ClusterConfig cl;
    cl.servers = 16;
    const Bytes bytes = 97 * kMiB + 3; // odd size on purpose
    const double expect = cluster::hierarchicalAllreduceSeconds(cl, bytes);
    const cluster::FaultyCollectiveResult r =
        cluster::hierarchicalAllreduceWithFaults(
            cl, bytes, none, retry, DegradedMode::ContinueDegraded);
    EXPECT_EQ(r.seconds, expect);
    EXPECT_EQ(r.penaltySeconds, 0.0);
}

TEST(FaultCollective, EmptyScheduleStepSecondsBitwise)
{
    const FaultSchedule none;
    const RetryPolicy retry;
    cluster::ClusterConfig cl;
    cl.servers = 64;
    cluster::TrainingJob job;
    job.stepSecondsPerChip = 0.05;
    job.gradientBytes = 50 * kMiB;
    job.samplesPerChipStep = 32;
    for (unsigned chips : {1u, 4u, 8u, 64u, 512u}) {
        const double expect = cluster::stepSeconds(job, cl, chips);
        const cluster::FaultyCollectiveResult r =
            cluster::stepSecondsWithFaults(
                job, cl, chips, none, retry,
                DegradedMode::ContinueDegraded);
        EXPECT_EQ(r.seconds, expect) << chips << " chips";
        EXPECT_EQ(cluster::throughputSamplesPerSecWithFaults(
                      job, cl, chips, none, retry,
                      DegradedMode::ContinueDegraded),
                  cluster::throughputSamplesPerSec(job, cl, chips))
            << chips << " chips";
    }
}

TEST(FaultCollective, LinkOutagesCostTimeAndRetries)
{
    const RetryPolicy retry;
    const FaultSchedule faults =
        FaultSchedule::generate(linkFaultSpec(20.0));
    ASSERT_FALSE(faults.empty());
    const Bytes bytes = 256 * kMiB;
    const double clean = cluster::allreduceAlgoSeconds(
        cluster::CollectiveAlgo::Ring, bytes, 8, 12.5e9, 5e-6);
    const cluster::FaultyCollectiveResult r =
        cluster::allreduceWithFaults(
            cluster::CollectiveAlgo::Ring, bytes, 8, 12.5e9, 5e-6,
            faults, retry, DegradedMode::ContinueDegraded);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GT(r.seconds, clean);
    EXPECT_DOUBLE_EQ(r.seconds, clean + r.penaltySeconds);
}

TEST(FaultCollective, FailStopReportsTimeToFailure)
{
    // Permanent-ish outage: long windows, no retries allowed.
    FaultSpec spec = linkFaultSpec(5.0);
    spec.linkOutageSec = 100.0; // outlives every retry budget
    const FaultSchedule faults = FaultSchedule::generate(spec);
    RetryPolicy retry;
    retry.maxRetries = 2;

    const cluster::FaultyCollectiveResult stopped =
        cluster::allreduceWithFaults(
            cluster::CollectiveAlgo::Ring, 256 * kMiB, 8, 12.5e9, 5e-6,
            faults, retry, DegradedMode::FailStop);
    EXPECT_FALSE(stopped.completed);
    EXPECT_GT(stopped.downSteps, 0u);

    const cluster::FaultyCollectiveResult degraded =
        cluster::allreduceWithFaults(
            cluster::CollectiveAlgo::Ring, 256 * kMiB, 8, 12.5e9, 5e-6,
            faults, retry, DegradedMode::ContinueDegraded);
    EXPECT_TRUE(degraded.completed);
    EXPECT_GT(degraded.degradedSteps, 0u);
    // Completing through degradation costs more wall time than the
    // truncated fail-stop run observed.
    EXPECT_GT(degraded.seconds, stopped.seconds);
}

TEST(FaultCollective, TrainingRunAccumulates)
{
    cluster::ClusterConfig cl;
    cl.servers = 4;
    cluster::TrainingJob job;
    job.stepSecondsPerChip = 0.01;
    job.gradientBytes = 10 * kMiB;
    job.samplesPerChipStep = 16;
    const RetryPolicy retry;
    const CheckpointPolicy checkpoint;
    const FaultSchedule none;

    const cluster::TrainingRunResult clean =
        cluster::trainingRunWithFaults(job, cl, 32, 10, none, retry,
                                       DegradedMode::ContinueDegraded,
                                       checkpoint);
    EXPECT_TRUE(clean.completed);
    EXPECT_EQ(clean.stepsDone, 10u);
    // Bitwise: the zero-fault run is the same left-to-right sum a
    // fault-free stepper would accumulate.
    double expect = 0;
    for (unsigned s = 0; s < 10; ++s)
        expect += cluster::stepSeconds(job, cl, 32);
    EXPECT_EQ(clean.seconds, expect);

    // Outages long enough (20 ms) to overlap a ~100 ms training run.
    FaultSpec fspec = linkFaultSpec(10.0);
    fspec.linkOutageSec = 0.02;
    const FaultSchedule faults = FaultSchedule::generate(fspec);
    const cluster::TrainingRunResult faulty =
        cluster::trainingRunWithFaults(job, cl, 32, 10, faults, retry,
                                       DegradedMode::ContinueDegraded,
                                       checkpoint);
    EXPECT_TRUE(faulty.completed);
    EXPECT_GT(faulty.seconds, clean.seconds);
}

std::vector<std::vector<soc::CoreTask>>
sampleChipWork(unsigned cores)
{
    std::vector<std::vector<soc::CoreTask>> per_core(cores);
    for (unsigned c = 0; c < cores; ++c)
        for (unsigned t = 0; t < 4; ++t)
            per_core[c].push_back(
                soc::CoreTask{1e-3 * (1 + (c + t) % 3),
                              Bytes((c + 2 * t + 1)) * kMiB});
    return per_core;
}

TEST(ChipSimFaults, EmptyPlanBitwiseEqualsFaultFree)
{
    const auto work = sampleChipWork(8);
    const double bw = 100e9;
    const soc::ChipSimResult base = soc::runChipSim(work, bw);
    const soc::ChipSimResult same =
        soc::runChipSim(work, bw, ChipFaultPlan{});
    EXPECT_EQ(same.makespan, base.makespan);
    EXPECT_EQ(same.avgMemUtilization, base.avgMemUtilization);
    ASSERT_EQ(same.coreFinish.size(), base.coreFinish.size());
    for (std::size_t c = 0; c < base.coreFinish.size(); ++c)
        EXPECT_EQ(same.coreFinish[c], base.coreFinish[c]);
    EXPECT_EQ(same.coreFailures, 0u);
    EXPECT_EQ(same.reDispatchedTasks, 0u);
    EXPECT_TRUE(same.completed);
}

TEST(ChipSimFaults, StragglerStretchesMakespan)
{
    const auto work = sampleChipWork(8);
    const double bw = 1e12; // compute-bound so slowdown must show
    const soc::ChipSimResult base = soc::runChipSim(work, bw);
    ChipFaultPlan plan;
    plan.stragglerFactor.assign(8, 1.0);
    plan.stragglerFactor[3] = 2.0;
    plan.coreEvents.resize(8);
    const soc::ChipSimResult slow = soc::runChipSim(work, bw, plan);
    EXPECT_GT(slow.makespan, base.makespan);
    EXPECT_GT(slow.coreFinish[3], base.coreFinish[3]);
    EXPECT_TRUE(slow.completed);
}

TEST(ChipSimFaults, PermanentFailureReDispatches)
{
    const auto work = sampleChipWork(4);
    const double bw = 100e9;
    const soc::ChipSimResult base = soc::runChipSim(work, bw);

    ChipFaultPlan plan;
    plan.stragglerFactor.assign(4, 1.0);
    plan.coreEvents.resize(4);
    // Kill core 0 immediately: all four of its tasks must move.
    plan.coreEvents[0].push_back(
        FaultEvent{FaultKind::CorePermanent, 0.0, 0, 0.0, 1.0});
    const soc::ChipSimResult r = soc::runChipSim(work, bw, plan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFailures, 1u);
    EXPECT_EQ(r.reDispatchedTasks, 4u);
    EXPECT_GT(r.makespan, base.makespan);

    // Mid-run kill: fewer tasks orphaned, still completes.
    plan.coreEvents[0][0].timeSec = base.makespan / 4;
    const soc::ChipSimResult mid = soc::runChipSim(work, bw, plan);
    EXPECT_TRUE(mid.completed);
    EXPECT_EQ(mid.coreFailures, 1u);
    EXPECT_GT(mid.reDispatchedTasks, 0u);
    EXPECT_LE(mid.reDispatchedTasks, 4u);
}

TEST(ChipSimFaults, TransientFailureRestartsTask)
{
    const auto work = sampleChipWork(4);
    const double bw = 100e9;
    const soc::ChipSimResult base = soc::runChipSim(work, bw);

    ChipFaultPlan plan;
    plan.stragglerFactor.assign(4, 1.0);
    plan.coreEvents.resize(4);
    plan.coreEvents[1].push_back(FaultEvent{
        FaultKind::CoreTransient, base.makespan / 3, 1, 5e-4, 1.0});
    const soc::ChipSimResult r = soc::runChipSim(work, bw, plan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFailures, 1u);
    EXPECT_EQ(r.reDispatchedTasks, 0u);
    EXPECT_GE(r.makespan, base.makespan);
    EXPECT_GT(r.coreFinish[1], base.coreFinish[1]);
}

TEST(ChipSimFaults, AllCoresDeadReportsIncomplete)
{
    const auto work = sampleChipWork(2);
    ChipFaultPlan plan;
    plan.stragglerFactor.assign(2, 1.0);
    plan.coreEvents.resize(2);
    for (unsigned c = 0; c < 2; ++c)
        plan.coreEvents[c].push_back(
            FaultEvent{FaultKind::CorePermanent, 1e-6, c, 0.0, 1.0});
    const soc::ChipSimResult r = soc::runChipSim(work, 100e9, plan);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.coreFailures, 2u);
}

// Edge cases of the degraded event loop. The tasks are compute-only
// with binary-exact lengths, so every expectation is a closed form
// compared exactly.

/** One compute-only task per entry of @p seconds. */
std::vector<soc::CoreTask>
computeQueue(std::initializer_list<double> seconds)
{
    std::vector<soc::CoreTask> q;
    for (double s : seconds)
        q.push_back(soc::CoreTask{s, 0});
    return q;
}

/** A plan for @p cores with no stragglers and no events yet. */
ChipFaultPlan
blankPlan(unsigned cores)
{
    ChipFaultPlan plan;
    plan.stragglerFactor.assign(cores, 1.0);
    plan.coreEvents.resize(cores);
    return plan;
}

TEST(ChipSimFaults, OrphansGoToACoreThatAlreadyWentIdle)
{
    // Core 0 drains its queue at t=1 and idles. Core 1 dies at 1.5
    // with 0.5 s left of its 2 s task: that task restarts from scratch
    // and its 3 s successor follows, both on core 0 — 1.5+2+3 = 6.5.
    const std::vector<std::vector<soc::CoreTask>> work = {
        computeQueue({1.0}), computeQueue({2.0, 3.0})};
    ChipFaultPlan plan = blankPlan(2);
    plan.coreEvents[1].push_back(
        FaultEvent{FaultKind::CorePermanent, 1.5, 1, 0.0, 1.0});
    const soc::ChipSimResult r = soc::runChipSim(work, 1e9, plan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFailures, 1u);
    EXPECT_EQ(r.reDispatchedTasks, 2u);
    EXPECT_EQ(r.makespan, 6.5);
    EXPECT_EQ(r.coreFinish[0], 6.5);
    EXPECT_EQ(r.coreFinish[1], 1.5);
}

TEST(ChipSimFaults, TransientOnAnIdleCoreHoldsTheOrphansItPicksUp)
{
    // Core 0 idles at t=1; a transient at 1.25 puts it in repair until
    // 2.25 with nothing to restart. Core 1 dies at 1.5; core 0 takes
    // its 2 s task at once but may start it only at 2.25 -> 4.25.
    const std::vector<std::vector<soc::CoreTask>> work = {
        computeQueue({1.0}), computeQueue({2.0})};
    ChipFaultPlan plan = blankPlan(2);
    plan.coreEvents[0].push_back(
        FaultEvent{FaultKind::CoreTransient, 1.25, 0, 1.0, 1.0});
    plan.coreEvents[1].push_back(
        FaultEvent{FaultKind::CorePermanent, 1.5, 1, 0.0, 1.0});
    const soc::ChipSimResult r = soc::runChipSim(work, 1e9, plan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFailures, 2u);
    EXPECT_EQ(r.reDispatchedTasks, 1u);
    EXPECT_EQ(r.makespan, 4.25);
    EXPECT_EQ(r.coreFinish[0], 4.25);
    EXPECT_EQ(r.coreFinish[1], 1.5);

    // Without the later orphan, the idle core's repair changes
    // nothing but the failure count.
    plan.coreEvents[1].clear();
    const soc::ChipSimResult quiet = soc::runChipSim(work, 1e9, plan);
    EXPECT_EQ(quiet.coreFailures, 1u);
    EXPECT_EQ(quiet.makespan, 2.0);
    EXPECT_EQ(quiet.coreFinish[0], 1.0);
}

TEST(ChipSimFaults, WakeJumpWhenEveryActiveCoreIsPaused)
{
    // Both cores fail mid-task at t=0.5: nothing can run, so the clock
    // jumps to core 0's repair at 1.5; its restarted 1 s task ends at
    // 2.5, exactly when core 1's repair ends -> 3.5.
    const std::vector<std::vector<soc::CoreTask>> work = {
        computeQueue({1.0}), computeQueue({1.0})};
    ChipFaultPlan plan = blankPlan(2);
    plan.coreEvents[0].push_back(
        FaultEvent{FaultKind::CoreTransient, 0.5, 0, 1.0, 1.0});
    plan.coreEvents[1].push_back(
        FaultEvent{FaultKind::CoreTransient, 0.5, 1, 2.0, 1.0});
    const soc::ChipSimResult r = soc::runChipSim(work, 1e9, plan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFailures, 2u);
    EXPECT_EQ(r.reDispatchedTasks, 0u);
    EXPECT_EQ(r.makespan, 3.5);
    EXPECT_EQ(r.coreFinish[0], 2.5);
    EXPECT_EQ(r.coreFinish[1], 3.5);
}

TEST(ChipSimFaults, EventsAfterACoresDeathAreIgnored)
{
    // Core 0 dies at 0.5; the transient at the same instant and every
    // later event on it neither count nor act. Its two 1 s tasks wait
    // for core 1 to finish its own 4 s task -> 6.
    const std::vector<std::vector<soc::CoreTask>> work = {
        computeQueue({1.0, 1.0}), computeQueue({4.0})};
    ChipFaultPlan plan = blankPlan(2);
    plan.coreEvents[0] = {
        FaultEvent{FaultKind::CorePermanent, 0.5, 0, 0.0, 1.0},
        FaultEvent{FaultKind::CoreTransient, 0.5, 0, 9.0, 1.0},
        FaultEvent{FaultKind::CoreTransient, 0.75, 0, 9.0, 1.0},
        FaultEvent{FaultKind::CorePermanent, 2.0, 0, 0.0, 1.0},
        FaultEvent{FaultKind::CoreTransient, 3.0, 0, 9.0, 1.0}};
    const soc::ChipSimResult r = soc::runChipSim(work, 1e9, plan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFailures, 1u);
    EXPECT_EQ(r.reDispatchedTasks, 2u);
    EXPECT_EQ(r.makespan, 6.0);
    EXPECT_EQ(r.coreFinish[0], 0.5);
    EXPECT_EQ(r.coreFinish[1], 6.0);
}

TEST(ChipSimFaults, KillsDueInOneStepOrphanInCoreIndexOrder)
{
    // Cores 0 and 1 idle at t=1. Core 3 dies one ulp later and core 2
    // two ulps later: both within the loop's 1e-15 s time floor, so
    // they fall due in one step, later-index core first in time. The
    // orphans still queue in core-index order: core 0 takes core 2's
    // 3 s task and core 1 takes core 3's 5 s task, both from t ~ 1.
    const std::vector<std::vector<soc::CoreTask>> work = {
        computeQueue({1.0}), computeQueue({1.0}), computeQueue({3.0}),
        computeQueue({5.0})};
    ChipFaultPlan plan = blankPlan(4);
    plan.coreEvents[2].push_back(
        FaultEvent{FaultKind::CorePermanent, 1.0 + 0x1p-51, 2, 0.0, 1.0});
    plan.coreEvents[3].push_back(
        FaultEvent{FaultKind::CorePermanent, 1.0 + 0x1p-52, 3, 0.0, 1.0});
    const soc::ChipSimResult r = soc::runChipSim(work, 1e9, plan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.coreFailures, 2u);
    EXPECT_EQ(r.reDispatchedTasks, 2u);
    EXPECT_NEAR(r.coreFinish[0], 4.0, 1e-12);
    EXPECT_NEAR(r.coreFinish[1], 6.0, 1e-12);
    EXPECT_NEAR(r.makespan, 6.0, 1e-12);
}

TEST(ChipClusterRun, EmptyPlansBitwiseEqualScalarPath)
{
    // With no chip faults and no link faults, the chip-sim-driven
    // training run must equal "measure the chip once, feed the
    // scalar" bit for bit.
    const auto work = sampleChipWork(8);
    const double bw = 100e9;
    const cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.gradientBytes = 51 * kMiB;
    const RetryPolicy retry;
    const CheckpointPolicy checkpoint;

    const soc::ChipSimResult chip = soc::runChipSim(work, bw);
    cluster::TrainingJob scalar_job = job;
    scalar_job.stepSecondsPerChip = chip.makespan;
    const cluster::TrainingRunResult scalar =
        cluster::trainingRunWithFaults(
            scalar_job, cl, 64, 10, FaultSchedule(), retry,
            DegradedMode::ContinueDegraded, checkpoint);

    const cluster::ChipTrainingRunResult r =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, ChipFaultPlan{},
            FaultSchedule(), retry, DegradedMode::ContinueDegraded,
            checkpoint);
    EXPECT_EQ(r.stepSecondsPerChip, chip.makespan);
    EXPECT_EQ(r.run.seconds, scalar.seconds);
    EXPECT_EQ(r.run.stepsDone, scalar.stepsDone);
    EXPECT_TRUE(r.run.completed);
    EXPECT_TRUE(r.chip.completed);
}

TEST(ChipClusterRun, ChipFaultsStretchTheRun)
{
    const auto work = sampleChipWork(8);
    const double bw = 1e12; // compute-bound: stragglers must show
    const cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.gradientBytes = 51 * kMiB;
    const RetryPolicy retry;
    const CheckpointPolicy checkpoint;

    const cluster::ChipTrainingRunResult clean =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, ChipFaultPlan{},
            FaultSchedule(), retry, DegradedMode::ContinueDegraded,
            checkpoint);

    ChipFaultPlan plan;
    plan.stragglerFactor.assign(8, 1.0);
    plan.stragglerFactor[2] = 2.0;
    plan.coreEvents.resize(8);
    const cluster::ChipTrainingRunResult slow =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, plan, FaultSchedule(), retry,
            DegradedMode::ContinueDegraded, checkpoint);
    EXPECT_GT(slow.stepSecondsPerChip, clean.stepSecondsPerChip);
    EXPECT_GT(slow.run.seconds, clean.run.seconds);
    EXPECT_TRUE(slow.run.completed);
}

TEST(ChipClusterRun, DeadChipFailsStopsAtStepZero)
{
    const auto work = sampleChipWork(2);
    ChipFaultPlan plan;
    plan.stragglerFactor.assign(2, 1.0);
    plan.coreEvents.resize(2);
    for (unsigned c = 0; c < 2; ++c)
        plan.coreEvents[c].push_back(
            FaultEvent{FaultKind::CorePermanent, 1e-6, c, 0.0, 1.0});
    const cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.gradientBytes = 51 * kMiB;
    const cluster::ChipTrainingRunResult r =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, 100e9, plan, FaultSchedule(),
            RetryPolicy(), DegradedMode::ContinueDegraded,
            CheckpointPolicy());
    EXPECT_FALSE(r.run.completed);
    EXPECT_FALSE(r.chip.completed);
    EXPECT_EQ(r.run.stepsDone, 0u);
}

TEST(ChipClusterRun, CheckpointIntervalLongerThanRun)
{
    // An interval that outlives the whole run still charges its
    // fractional save cost and bounds rework exactly as the closed
    // form prescribes.
    const auto work = sampleChipWork(8);
    const double bw = 100e9;
    const cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.gradientBytes = 51 * kMiB;
    const RetryPolicy retry;

    const cluster::ChipTrainingRunResult base =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, ChipFaultPlan{},
            FaultSchedule(), retry, DegradedMode::ContinueDegraded,
            CheckpointPolicy(), 0.0);

    CheckpointPolicy long_interval;
    long_interval.enabled = true;
    long_interval.intervalSec = 1e4; // >> the ~tens-of-ms run
    long_interval.saveSec = 2.0;
    long_interval.restartSec = 10.0;
    const double rate = 1e-3;
    const cluster::ChipTrainingRunResult r =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, ChipFaultPlan{},
            FaultSchedule(), retry, DegradedMode::ContinueDegraded,
            long_interval, rate);
    EXPECT_TRUE(r.run.completed);
    EXPECT_EQ(r.run.seconds,
              resilience::timeWithCheckpointRestart(
                  base.run.seconds, rate, long_interval));
    EXPECT_GT(r.run.seconds, base.run.seconds);
}

TEST(ChipClusterRun, ZeroCostCheckpointsChargeOnlyRework)
{
    const auto work = sampleChipWork(8);
    const double bw = 100e9;
    const cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.gradientBytes = 51 * kMiB;
    const RetryPolicy retry;

    const cluster::ChipTrainingRunResult base =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, ChipFaultPlan{},
            FaultSchedule(), retry, DegradedMode::ContinueDegraded,
            CheckpointPolicy(), 0.0);

    CheckpointPolicy free;
    free.enabled = true;
    free.intervalSec = 0.05;
    free.saveSec = 0.0;
    free.restartSec = 0.0;

    // Zero-cost saves with no errors must not perturb the result.
    const cluster::ChipTrainingRunResult clean =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, ChipFaultPlan{},
            FaultSchedule(), retry, DegradedMode::ContinueDegraded,
            free, 0.0);
    EXPECT_EQ(clean.run.seconds, base.run.seconds);

    // With errors, the only charge left is the half-interval rework.
    const double rate = 0.5;
    const cluster::ChipTrainingRunResult faulty =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, bw, ChipFaultPlan{},
            FaultSchedule(), retry, DegradedMode::ContinueDegraded,
            free, rate);
    EXPECT_EQ(faulty.run.seconds,
              base.run.seconds + rate * base.run.seconds *
                                     (0.5 * free.intervalSec));
}

TEST(ChipClusterRun, FailStopSkipsCheckpointCharges)
{
    // A run that fail-stops reports the time-to-failure only: the
    // ECC/checkpoint model applies to completed work, so not even an
    // enabled policy with a huge error rate may inflate it.
    const auto work = sampleChipWork(8);
    const cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.gradientBytes = 256 * kMiB;
    FaultSpec spec = linkFaultSpec(5.0);
    spec.linkOutageSec = 100.0; // outlives every retry budget
    const FaultSchedule faults = FaultSchedule::generate(spec);
    RetryPolicy retry;
    retry.maxRetries = 2;

    CheckpointPolicy ckpt;
    ckpt.enabled = true;
    ckpt.intervalSec = 0.01;
    ckpt.saveSec = 5.0;
    ckpt.restartSec = 50.0;

    const cluster::ChipTrainingRunResult stopped =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, 100e9, ChipFaultPlan{}, faults,
            retry, DegradedMode::FailStop, ckpt, 10.0);
    ASSERT_FALSE(stopped.run.completed);
    EXPECT_LT(stopped.run.stepsDone, 10u);

    // Bitwise identical to the same truncated run with the policy
    // off: the final interval's charges never land.
    const cluster::ChipTrainingRunResult plain =
        cluster::trainingRunWithChipFaults(
            job, cl, 64, 10, work, 100e9, ChipFaultPlan{}, faults,
            retry, DegradedMode::FailStop, CheckpointPolicy(), 0.0);
    EXPECT_EQ(stopped.run.seconds, plain.run.seconds);
    EXPECT_EQ(stopped.run.stepsDone, plain.run.stepsDone);
}

TEST(DramEcc, ZeroRateBitwiseEqualsBase)
{
    memory::DramModel plain(memory::hbm2Ascend910());
    memory::DramConfig cfg = memory::hbm2Ascend910();
    EXPECT_EQ(cfg.ecc.correctablePerGiB, 0.0);
    memory::DramModel ecc(cfg);
    for (Bytes b : {Bytes(1), Bytes(4096), 3 * kMiB, 2 * kGiB})
        EXPECT_EQ(ecc.serviceTimeWithEcc(b), plain.serviceTime(b));
    EXPECT_EQ(ecc.eccStallTime(kGiB), 0.0);
    EXPECT_EQ(ecc.uncorrectablePerSecAtFullBandwidth(), 0.0);
}

TEST(DramEcc, CorrectableErrorsStall)
{
    memory::DramConfig cfg = memory::hbm2Ascend910();
    cfg.ecc.correctablePerGiB = 2.0;
    cfg.ecc.correctableStallSec = 1e-6;
    cfg.ecc.uncorrectablePerGiB = 1e-3;
    memory::DramModel m(cfg);
    EXPECT_DOUBLE_EQ(m.expectedCorrectable(kGiB), 2.0);
    EXPECT_DOUBLE_EQ(m.eccStallTime(kGiB), 2e-6);
    EXPECT_GT(m.serviceTimeWithEcc(kGiB), m.serviceTime(kGiB));
    EXPECT_DOUBLE_EQ(m.serviceTimeWithEcc(kGiB),
                     m.serviceTime(kGiB) + 2e-6);
    EXPECT_GT(m.uncorrectablePerSecAtFullBandwidth(), 0.0);
}

TEST(SessionResilience, DefaultOptionsBitwiseEqualBaseline)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    // Private caches so the two sessions cannot share entries.
    runtime::SimSession plain(
        cfg, {}, std::make_shared<runtime::SimCache>());
    runtime::SimSession res(cfg, {},
                            std::make_shared<runtime::SimCache>(),
                            resilience::ResilienceOptions{});
    for (const auto &layer : net.layers) {
        const core::SimResult a = plain.runLayer(layer);
        const core::SimResult b = res.runLayer(layer);
        EXPECT_EQ(a.totalCycles, b.totalCycles);
        EXPECT_EQ(a.totalFlops, b.totalFlops);
        EXPECT_EQ(a.instrsExecuted, b.instrsExecuted);
    }
}

TEST(SessionResilience, StragglerSlowdownScalesCycles)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    resilience::ResilienceOptions res;
    res.enabled = true;
    res.stragglerSlowdown = 1.5;
    runtime::SimSession plain(
        cfg, {}, std::make_shared<runtime::SimCache>());
    runtime::SimSession slow(
        cfg, {}, std::make_shared<runtime::SimCache>(), res);
    for (const auto &layer : net.layers) {
        const core::SimResult a = plain.runLayer(layer);
        const core::SimResult b = slow.runLayer(layer);
        EXPECT_EQ(b.totalCycles,
                  Cycles(std::ceil(double(a.totalCycles) * 1.5)));
        EXPECT_EQ(a.totalFlops, b.totalFlops); // work is unchanged
    }
}

TEST(SessionResilience, DerateKeepsPipeAccounting)
{
    // busy 1 + wait 1 = total 2 stretched by 1.5: rounding every term
    // up would give 2 + 2 > 3. The stall rounds down instead.
    core::SimResult r;
    r.totalCycles = 2;
    r.pipes[0] = {1, 1, 1, 1}; // busy, finish, wait, instrs
    const core::SimResult d = runtime::derate(r, 1.5);
    EXPECT_EQ(d.totalCycles, 3u);
    EXPECT_EQ(d.pipes[0].busyCycles, 2u);
    EXPECT_EQ(d.pipes[0].finishCycle, 2u);
    EXPECT_EQ(d.pipes[0].waitCycles, 1u);
    EXPECT_EQ(d.pipes[0].instrs, 1u); // work is unchanged

    // Every split of a small total, at several factors.
    for (const double s : {1.1, 1.5, 2.0, 2.7, 3.3}) {
        for (Cycles total = 0; total <= 12; ++total) {
            for (Cycles busy = 0; busy <= total; ++busy) {
                for (Cycles wait = 0; busy + wait <= total; ++wait) {
                    core::SimResult x;
                    x.totalCycles = total;
                    x.pipes[2] = {busy, busy + wait, wait, 1};
                    const core::SimResult y = runtime::derate(x, s);
                    const core::PipeStats &p = y.pipes[2];
                    EXPECT_LE(p.busyCycles, p.finishCycle);
                    EXPECT_LE(p.finishCycle, y.totalCycles);
                    EXPECT_LE(p.busyCycles + p.waitCycles, y.totalCycles)
                        << "busy " << busy << " wait " << wait
                        << " total " << total << " x" << s;
                }
            }
        }
    }
}

TEST(SessionResilience, OptionsSeparateCacheKeys)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    const auto layer =
        graph::toNetwork(graph::zoo::gestureNetGraph(1)).layers.front();
    auto cache = std::make_shared<runtime::SimCache>();
    resilience::ResilienceOptions res;
    res.enabled = true;
    res.stragglerSlowdown = 2.0;
    runtime::SimSession plain(cfg, {}, cache);
    runtime::SimSession slow(cfg, {}, cache, res);
    // Same shared cache: a fault-free entry must not satisfy the
    // degraded session (and vice versa).
    const core::SimResult a = plain.runLayer(layer);
    const core::SimResult b = slow.runLayer(layer);
    EXPECT_NE(a.totalCycles, b.totalCycles);
    // Fingerprints of distinct options differ; identical ones match.
    EXPECT_NE(runtime::fingerprint(res),
              runtime::fingerprint(resilience::ResilienceOptions{}));
    EXPECT_EQ(runtime::fingerprint(res), runtime::fingerprint(res));
}

} // namespace
