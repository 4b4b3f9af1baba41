/**
 * @file
 * Chaos scenario of the elastic cluster engine: a 64-chip training
 * run under a seeded schedule of permanent core faults, link faults,
 * ECC errors and stragglers, checkpointing every 5 steps.
 *
 * Every event-log line, and so every kill point, lands at an event
 * boundary of the engine loop: a checkpoint, failure, rollback or
 * step logs its line, never mid-phase. Checkpoints are taken only at
 * the head of an instant, before its faults and step, which is what
 * makes any kill-resume pair replay the identical sequence of events.
 *
 * Modes:
 *  - (no args) soak: run the scenario for two seeds in-process and
 *    print the elastic outcome tables (a normal bench);
 *  - --chaos, and its --run child: the SIGKILL/resume byte-diff
 *    experiment of bench/chaos_harness.hh, which also proves that its
 *    kills landed and its resumes adopted a checkpoint. The seed
 *    comes from ASCEND_CHAOS_SEED (default 3); CI runs two.
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_util.hh"
#include "bench/chaos_harness.hh"
#include "cluster/elastic_run.hh"

using namespace ascend;
using cluster::ElasticOptions;
using cluster::ElasticRunResult;
using resilience::DegradedMode;
using resilience::FaultSchedule;
using resilience::FaultSpec;
using resilience::RetryPolicy;

namespace {

/** Everything one chaos scenario needs, derived from the seed. */
struct Scenario
{
    cluster::TrainingJob job;
    cluster::ClusterConfig cl;
    unsigned chips = 64;
    unsigned steps = 40;
    FaultSchedule faults;
    RetryPolicy retry;
    DegradedMode mode = DegradedMode::ContinueDegraded;
    ElasticOptions options;
};

Scenario
scenario(std::uint64_t seed)
{
    Scenario sc;
    sc.job.stepSecondsPerChip = 0.05;
    sc.job.gradientBytes = 51 * kMiB;
    sc.job.samplesPerChipStep = 256;

    FaultSpec spec;
    spec.seed = seed;
    spec.horizonSec = 600.0;
    spec.cores = unsigned(ceilDiv(sc.chips, sc.cl.server.chips));
    spec.links = spec.cores;
    spec.corePermanentPerSec = 0.15;
    spec.linkDownPerSec = 1.0;
    spec.linkDegradePerSec = 0.5;
    spec.eccUncorrectablePerSec = 0.4;
    spec.stragglerFraction = 0.25;
    spec.stragglerSlowdown = 1.6;
    sc.faults = FaultSchedule::generate(spec);

    sc.options.spareNodes = 2;
    sc.options.stateBytes = 256 * kMiB;
    sc.options.failoverRestartSec = 2.0;
    sc.options.reshardRestartSec = 4.0;
    sc.options.checkpoint.enabled = true;
    sc.options.checkpoint.intervalSec = 1e6; // step cadence drives it
    sc.options.checkpoint.saveSec = 0.5;
    sc.options.checkpoint.restartSec = 1.0;
    sc.options.checkpointEverySteps = 5;
    return sc;
}

ElasticRunResult
runScenario(Scenario &sc)
{
    return cluster::runElastic(sc.job, sc.cl, sc.chips, sc.steps,
                               sc.faults, sc.retry, sc.mode,
                               sc.options);
}

/** The chaos harness's scenario: one seeded run under @p control. */
bench::ChaosRun
chaosRun(std::uint64_t seed, const resilience::RunControl &control)
{
    Scenario sc = scenario(seed);
    static_cast<resilience::RunControl &>(sc.options) = control;
    const ElasticRunResult r = runScenario(sc);
    const unsigned events = unsigned(
        std::count(r.eventLog.begin(), r.eventLog.end(), '\n'));
    return {r.report(), events,
            std::to_string(events) + " recovery events, " +
                (r.completed ? "completed" : "failed") + " in " +
                std::to_string(r.stepsDone) + " steps"};
}

void
soak()
{
    bench::banner("Elastic-run chaos soak (seeded failover / shrink / "
                  "rollback / speculation)");
    TextTable t("elastic runs under chaos schedules");
    t.header({"seed", "seconds", "steps", "failovers", "shrinks",
              "rollbacks", "replayed", "speculations", "final chips",
              "completed"});
    for (std::uint64_t seed : {std::uint64_t(3), std::uint64_t(11)}) {
        Scenario sc = scenario(seed);
        const ElasticRunResult r = runScenario(sc);
        t.row({TextTable::num(seed), TextTable::num(r.seconds, 3),
               TextTable::num(std::uint64_t(r.stepsDone)) + "/" +
                   TextTable::num(std::uint64_t(sc.steps)),
               TextTable::num(r.counters.failovers),
               TextTable::num(r.counters.shrinks),
               TextTable::num(r.counters.rollbacks),
               TextTable::num(r.counters.replayedSteps),
               TextTable::num(r.counters.speculations),
               TextTable::num(std::uint64_t(r.finalChips)),
               r.completed ? "yes" : "no"});
    }
    t.print(std::cout);
    std::cout << "run `ASCEND_CHAOS_SEED=<n> bench_chaos --chaos` for "
                 "the SIGKILL/resume\nbyte-diff experiment CI "
                 "enforces.\n";
}

} // anonymous namespace

int
runBench(int argc, char **argv)
{
    if (const std::optional<int> rc =
            bench::chaosHarness(argc, argv, 3, chaosRun))
        return *rc;
    soak();
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
