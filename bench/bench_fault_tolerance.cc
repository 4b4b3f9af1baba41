/**
 * @file
 * Fault-tolerance curves for the Section 4.2 cluster at scale: what
 * the 2048-chip training numbers look like once links flap, cores
 * die, and DRAM bits rot. Three sweeps:
 *
 *  1. data-parallel training under link faults — fault rate x
 *     recovery policy x cluster size, reporting degraded throughput,
 *     time-to-completion (or time-to-failure) and retry counts;
 *  2. chip-level degraded execution (soc::runChipSim fault plans) —
 *     makespan stretch from stragglers, transient restarts and
 *     permanent-failure re-dispatch;
 *  3. ECC and checkpoint/restart cost curves for long training runs.
 *
 * Every number is closed-form or event-driven arithmetic over a
 * seeded resilience::FaultSchedule: the output is byte-identical for
 * any ASCEND_THREADS setting (the sweep fans out through
 * runtime::parallelFor with index-ordered rows). `--smoke` runs a
 * reduced grid, pinned to tests/golden/bench_fault_tolerance_smoke.txt
 * (ctest -L bench-golden).
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cluster/elastic_run.hh"
#include "cluster/fault_collective.hh"
#include "memory/dram.hh"
#include "resilience/fault_domain.hh"
#include "resilience/fault_schedule.hh"
#include "resilience/policy.hh"
#include "soc/chip_sim.hh"

using namespace ascend;
using resilience::ChipFaultPlan;
using resilience::CheckpointPolicy;
using resilience::DegradedMode;
using resilience::FaultSchedule;
using resilience::FaultSpec;
using resilience::RetryPolicy;

namespace {

/** One design point of the training sweep. */
struct SweepPoint
{
    unsigned chips = 0;
    double linkDownPerSec = 0;
    DegradedMode mode = DegradedMode::ContinueDegraded;
};

/** A rendered table row, computed in parallel, printed in order. */
using Row = std::vector<std::string>;

void
trainingSweep(bool smoke)
{
    bench::banner("Training under link faults (ResNet50-class job, "
                  "fault rate x policy x cluster size)");

    cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.stepSecondsPerChip = 0.05;
    job.gradientBytes = 51 * kMiB; // fp16 ResNet50 gradient
    job.samplesPerChipStep = 256;
    const unsigned steps = smoke ? 20 : 100;

    const std::vector<unsigned> sizes =
        smoke ? std::vector<unsigned>{8, 256}
              : std::vector<unsigned>{8, 64, 256, 1024, 2048};
    const std::vector<double> rates =
        smoke ? std::vector<double>{0.0, 2.0}
              : std::vector<double>{0.0, 0.5, 2.0, 8.0};
    const std::vector<DegradedMode> modes = {
        DegradedMode::ContinueDegraded, DegradedMode::FailStop};

    std::vector<SweepPoint> grid;
    for (unsigned chips : sizes)
        for (double rate : rates)
            for (DegradedMode mode : modes)
                grid.push_back(SweepPoint{chips, rate, mode});

    std::vector<Row> rows(grid.size());
    runtime::parallelFor(grid.size(), [&](std::size_t i) {
        const SweepPoint &pt = grid[i];
        FaultSpec spec;
        spec.seed = 42;
        spec.links = unsigned(ceilDiv(pt.chips, cl.server.chips));
        spec.horizonSec = 600.0;
        spec.linkDownPerSec = pt.linkDownPerSec;
        spec.linkDegradePerSec = pt.linkDownPerSec / 2;
        const FaultSchedule faults = FaultSchedule::generate(spec);
        // The printed fault axis is whole-schedule events per
        // sim-second — the same unit BENCH_resilience.json reports —
        // not the per-link input rate (which silently excluded the
        // derived degrade stream).
        const double eventsPerSec =
            double(faults.events().size()) / spec.horizonSec;
        const RetryPolicy retry;
        const CheckpointPolicy checkpoint;

        const cluster::TrainingRunResult clean =
            cluster::trainingRunWithFaults(job, cl, pt.chips, steps,
                                           FaultSchedule(), retry,
                                           pt.mode, checkpoint);
        const cluster::TrainingRunResult run =
            cluster::trainingRunWithFaults(job, cl, pt.chips, steps,
                                           faults, retry, pt.mode,
                                           checkpoint);
        const double goodput = run.seconds > 0
            ? double(job.samplesPerChipStep) * pt.chips *
                  run.stepsDone / run.seconds
            : 0.0;
        const double rel = clean.seconds > 0
            ? 100.0 * clean.seconds / std::max(run.seconds, 1e-12)
            : 0.0;
        rows[i] = {TextTable::num(std::uint64_t(pt.chips)),
                   TextTable::num(eventsPerSec, 2),
                   toString(pt.mode),
                   TextTable::num(std::uint64_t(run.stepsDone)) + "/" +
                       TextTable::num(std::uint64_t(steps)),
                   TextTable::num(run.seconds, 3),
                   TextTable::num(std::uint64_t(run.retries)),
                   TextTable::num(std::uint64_t(run.degradedSteps)),
                   TextTable::num(goodput, 0),
                   run.completed ? TextTable::num(rel, 1) : "failed"};
    });

    TextTable t("training resilience");
    t.header({"chips", "events/s", "policy", "steps", "seconds",
              "retries", "degraded", "img/s", "eff %"});
    for (const Row &row : rows)
        t.row(row);
    t.print(std::cout);
    std::cout << "eff % = fault-free wall time / achieved wall time; "
                 "FailStop rows that\nexhaust retries report steps "
                 "finished before the abort.\n";
}

void
chipSweep(bool smoke)
{
    bench::banner("Chip-level degraded execution (32-core fluid model)");

    const unsigned cores = 32;
    std::vector<std::vector<soc::CoreTask>> work(cores);
    for (unsigned c = 0; c < cores; ++c)
        for (unsigned k = 0; k < (smoke ? 4u : 8u); ++k)
            work[c].push_back(
                soc::CoreTask{1e-3 * (1 + (c + k) % 4),
                              Bytes((c % 7) + 2 * k + 1) * kMiB});
    const soc::ChipSimResult clean = soc::runChipSim(work, 1.2e12);

    struct Scenario
    {
        const char *name;
        FaultSpec spec;
    };
    std::vector<Scenario> scenarios;
    {
        FaultSpec s;
        s.seed = 7;
        s.cores = cores;
        s.horizonSec = 1.0;
        Scenario straggler{"stragglers 25% @1.5x", s};
        straggler.spec.stragglerFraction = 0.25;
        straggler.spec.stragglerSlowdown = 1.5;
        scenarios.push_back(straggler);
        Scenario transient{"transient 40/core/s", s};
        transient.spec.coreTransientPerSec = 40.0;
        transient.spec.coreRepairSec = 2e-3;
        scenarios.push_back(transient);
        Scenario permanent{"permanent 15/core/s", s};
        permanent.spec.corePermanentPerSec = 15.0;
        scenarios.push_back(permanent);
        Scenario mixed{"all of the above", s};
        mixed.spec.stragglerFraction = 0.25;
        mixed.spec.stragglerSlowdown = 1.5;
        mixed.spec.coreTransientPerSec = 40.0;
        mixed.spec.coreRepairSec = 2e-3;
        mixed.spec.corePermanentPerSec = 15.0;
        scenarios.push_back(mixed);
    }

    std::vector<Row> rows(scenarios.size());
    runtime::parallelFor(scenarios.size(), [&](std::size_t i) {
        const ChipFaultPlan plan = ChipFaultPlan::fromSchedule(
            FaultSchedule::generate(scenarios[i].spec), cores);
        const soc::ChipSimResult r = soc::runChipSim(work, 1.2e12, plan);
        rows[i] = {scenarios[i].name,
                   TextTable::num(r.makespan * 1e3, 3),
                   TextTable::num(r.makespan / clean.makespan, 3),
                   TextTable::num(std::uint64_t(r.coreFailures)),
                   TextTable::num(std::uint64_t(r.reDispatchedTasks)),
                   r.completed ? "yes" : "no"};
    });

    TextTable t("degraded chip execution");
    t.header({"scenario", "makespan (ms)", "stretch", "core faults",
              "re-dispatched", "completed"});
    t.row({"fault-free", TextTable::num(clean.makespan * 1e3, 3),
           TextTable::num(1.0, 3), "0", "0", "yes"});
    for (const Row &row : rows)
        t.row(row);
    t.print(std::cout);
}

void
chipClusterSweep()
{
    bench::banner("Cluster training with simulated chip step time "
                  "(fluid chip sim -> cluster run)");

    // One chip's data-parallel step, as fluid task queues.
    const unsigned cores = 32;
    std::vector<std::vector<soc::CoreTask>> work(cores);
    for (unsigned c = 0; c < cores; ++c)
        for (unsigned k = 0; k < 8; ++k)
            work[c].push_back(
                soc::CoreTask{1e-3 * (1 + (c + k) % 4),
                              Bytes((c % 7) + 2 * k + 1) * kMiB});

    cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.gradientBytes = 51 * kMiB;
    job.samplesPerChipStep = 256;
    const unsigned steps = 100;
    const RetryPolicy retry;
    const CheckpointPolicy checkpoint;

    struct Scenario
    {
        const char *name;
        FaultSpec spec;
    };
    std::vector<Scenario> scenarios;
    {
        FaultSpec s;
        s.seed = 7;
        s.cores = cores;
        s.horizonSec = 1.0;
        scenarios.push_back({"healthy chip", s});
        Scenario straggler{"stragglers 25% @1.5x", s};
        straggler.spec.stragglerFraction = 0.25;
        straggler.spec.stragglerSlowdown = 1.5;
        scenarios.push_back(straggler);
        Scenario permanent{"permanent 15/core/s", s};
        permanent.spec.corePermanentPerSec = 15.0;
        scenarios.push_back(permanent);
    }
    const std::vector<unsigned> sizes = {64, 1024};

    struct Point
    {
        std::size_t scenario;
        unsigned chips;
    };
    std::vector<Point> grid;
    for (std::size_t s = 0; s < scenarios.size(); ++s)
        for (unsigned chips : sizes)
            grid.push_back({s, chips});

    std::vector<Row> rows(grid.size());
    runtime::parallelFor(grid.size(), [&](std::size_t i) {
        const Scenario &sc = scenarios[grid[i].scenario];
        const ChipFaultPlan plan = ChipFaultPlan::fromSchedule(
            FaultSchedule::generate(sc.spec), cores);
        const cluster::ChipTrainingRunResult r =
            cluster::trainingRunWithChipFaults(
                job, cl, grid[i].chips, steps, work, 1.2e12, plan,
                FaultSchedule(), retry, DegradedMode::ContinueDegraded,
                checkpoint);
        rows[i] = {sc.name, TextTable::num(std::uint64_t(grid[i].chips)),
                   TextTable::num(r.stepSecondsPerChip * 1e3, 3),
                   TextTable::num(std::uint64_t(r.run.stepsDone)) + "/" +
                       TextTable::num(std::uint64_t(steps)),
                   TextTable::num(r.run.seconds, 3),
                   r.run.completed ? "yes" : "no"};
    });

    TextTable t("chip-sim-driven training runs");
    t.header({"chip state", "chips", "step/chip (ms)", "steps",
              "seconds", "completed"});
    for (const Row &row : rows)
        t.row(row);
    t.print(std::cout);
    std::cout << "step/chip comes from the fluid chip simulator "
                 "(stragglers and dead cores\nstretch it); the cluster "
                 "run then pays communication on top.\n";
}

/** One policy's makespan in the elastic comparison. */
struct ElasticPoint
{
    std::string name;
    double seconds = 0;
    unsigned stepsDone = 0;
    bool completed = true;
    /** Whole-schedule fault events per sim-second of its horizon —
     *  the one fault-rate unit stdout and the JSON share. */
    double faultEventsPerSimSec = 0;
    cluster::ElasticCounters counters;
};

/** Events per sim-second of @p faults over its horizon. */
double
eventsPerSimSec(const FaultSchedule &faults)
{
    const double horizon = faults.spec().horizonSec;
    return horizon > 0 ? double(faults.events().size()) / horizon : 0;
}

/**
 * Fault-free vs. penalty-model vs. elastic makespans on one chaotic
 * schedule: the bench trajectory BENCH_resilience.json tracks across
 * PRs. Serial and closed-form — byte-identical at any thread count.
 */
std::vector<ElasticPoint>
elasticSweep(bool smoke)
{
    bench::banner("Elastic recovery vs. penalty-model recovery "
                  "(64 chips, node deaths + ECC + stragglers)");

    cluster::ClusterConfig cl;
    cluster::TrainingJob job;
    job.stepSecondsPerChip = 0.05;
    job.gradientBytes = 51 * kMiB;
    job.samplesPerChipStep = 256;
    const unsigned chips = 64;
    const unsigned steps = smoke ? 20 : 60;
    const RetryPolicy retry;

    FaultSpec spec;
    spec.seed = 42;
    spec.horizonSec = 600.0;
    spec.cores = unsigned(ceilDiv(chips, cl.server.chips));
    spec.links = spec.cores;
    spec.corePermanentPerSec = 0.15;
    spec.linkDownPerSec = 1.0;
    spec.linkDegradePerSec = 0.5;
    spec.eccUncorrectablePerSec = 0.2;
    spec.stragglerFraction = 0.25;
    spec.stragglerSlowdown = 1.6;
    const FaultSchedule faults = FaultSchedule::generate(spec);

    cluster::ElasticOptions elastic;
    elastic.stateBytes = 256 * kMiB;
    elastic.failoverRestartSec = 2.0;
    elastic.reshardRestartSec = 4.0;
    elastic.checkpoint.enabled = true;
    elastic.checkpoint.intervalSec = 1e6; // step cadence drives it
    elastic.checkpoint.saveSec = 0.5;
    elastic.checkpoint.restartSec = 1.0;
    elastic.checkpointEverySteps = 5;
    cluster::ElasticOptions spares = elastic;
    spares.spareNodes = 2;

    std::vector<ElasticPoint> points;
    {
        ElasticPoint p;
        p.name = "fault-free";
        const cluster::ElasticRunResult r = cluster::runElastic(
            job, cl, chips, steps, FaultSchedule(), retry,
            DegradedMode::ContinueDegraded);
        p.seconds = r.seconds;
        p.stepsDone = r.stepsDone;
        p.completed = r.completed;
        p.counters = r.counters;
        points.push_back(p);
    }
    {
        ElasticPoint p;
        p.name = "degraded (penalty model)";
        const cluster::TrainingRunResult r =
            cluster::trainingRunWithFaults(
                job, cl, chips, steps, faults, retry,
                DegradedMode::ContinueDegraded, CheckpointPolicy{},
                spec.eccUncorrectablePerSec);
        p.seconds = r.seconds;
        p.stepsDone = r.stepsDone;
        p.completed = r.completed;
        p.faultEventsPerSimSec = eventsPerSimSec(faults);
        points.push_back(p);
    }
    const std::pair<const char *, const cluster::ElasticOptions *>
        variants[] = {{"elastic (2 spares)", &spares},
                      {"elastic (shrink only)", &elastic}};
    for (const auto &variant : variants) {
        ElasticPoint p;
        p.name = variant.first;
        const cluster::ElasticRunResult r = cluster::runElastic(
            job, cl, chips, steps, faults, retry,
            DegradedMode::ContinueDegraded, *variant.second);
        p.seconds = r.seconds;
        p.stepsDone = r.stepsDone;
        p.completed = r.completed;
        p.faultEventsPerSimSec = eventsPerSimSec(faults);
        p.counters = r.counters;
        points.push_back(p);
    }
    {
        // Domain-correlated schedule: one rack strike kills half the
        // servers at a single instant early in the run. The elastic
        // engine must absorb several simultaneous deaths in one step
        // (spares first, then a shrink for the remainder).
        resilience::CorrelatedFaultSpec cspec;
        cspec.seed = spec.seed;
        cspec.horizonSec = spec.horizonSec;
        cspec.topology.replicas = spec.cores;
        cspec.topology.replicasPerRack =
            std::max(1u, spec.cores / 2);
        cspec.rackStrikeAtSec = 0.5;
        cspec.rackStrikeKind = resilience::FaultKind::CorePermanent;
        const FaultSchedule rack =
            resilience::generateCorrelated(cspec);
        ElasticPoint p;
        p.name = "elastic (rack-correlated)";
        const cluster::ElasticRunResult r = cluster::runElastic(
            job, cl, chips, steps, rack, retry,
            DegradedMode::ContinueDegraded, spares);
        p.seconds = r.seconds;
        p.stepsDone = r.stepsDone;
        p.completed = r.completed;
        p.faultEventsPerSimSec = eventsPerSimSec(rack);
        p.counters = r.counters;
        points.push_back(p);
    }

    TextTable t("elastic vs. penalty recovery");
    t.header({"policy", "events/s", "seconds", "steps", "failovers",
              "shrinks", "rollbacks", "replayed", "speculations",
              "completed"});
    for (const ElasticPoint &p : points)
        t.row({p.name, TextTable::num(p.faultEventsPerSimSec, 2),
               TextTable::num(p.seconds, 3),
               TextTable::num(std::uint64_t(p.stepsDone)) + "/" +
                   TextTable::num(std::uint64_t(steps)),
               TextTable::num(p.counters.failovers),
               TextTable::num(p.counters.shrinks),
               TextTable::num(p.counters.rollbacks),
               TextTable::num(p.counters.replayedSteps),
               TextTable::num(p.counters.speculations),
               p.completed ? "yes" : "no"});
    t.print(std::cout);
    std::cout << "the penalty model keeps dead nodes in the ring; the "
                 "elastic engine fails\nover to spares, shrinks the "
                 "world, and replays actual lost steps.\n";
    return points;
}

/** The resilience trajectory, machine-readable: BENCH_resilience.json. */
void
writeResilienceJson(const std::vector<ElasticPoint> &points)
{
    std::ofstream out("BENCH_resilience.json");
    out << "{\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ElasticPoint &p = points[i];
        out << "    {\"name\": \"" << p.name
            << "\", \"seconds\": " << p.seconds
            << ", \"steps_done\": " << p.stepsDone
            << ", \"completed\": " << (p.completed ? "true" : "false")
            << ", \"fault_events_per_sim_sec\": "
            << p.faultEventsPerSimSec
            << ", \"failovers\": " << p.counters.failovers
            << ", \"shrinks\": " << p.counters.shrinks
            << ", \"rollbacks\": " << p.counters.rollbacks
            << ", \"replayed_steps\": " << p.counters.replayedSteps
            << ", \"speculations\": " << p.counters.speculations
            << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    // stderr: the golden-diffed stdout must stay byte-identical.
    std::cerr << "wrote BENCH_resilience.json\n";
}

void
eccCheckpointCurves(bool smoke)
{
    bench::banner("ECC scrubbing and checkpoint/restart cost");

    memory::DramConfig hbm;
    hbm.ecc.correctablePerGiB = 1e-3;
    hbm.ecc.correctableStallSec = 5e-6;
    hbm.ecc.uncorrectablePerGiB = 1e-9;
    const memory::DramModel dram(hbm);
    TextTable e("ECC on 1.2 TB/s HBM");
    e.header({"transfer", "stream (ms)", "corrections",
              "stall (us)", "overhead %"});
    for (Bytes bytes : {Bytes(1) << 30, Bytes(64) << 30,
                        Bytes(512) << 30}) {
        const double stream = dram.streamTime(bytes);
        const double stall = dram.eccStallTime(bytes);
        e.row({formatBytes(bytes), TextTable::num(stream * 1e3, 3),
               TextTable::num(dram.expectedCorrectable(bytes), 3),
               TextTable::num(stall * 1e6, 3),
               TextTable::num(100.0 * stall / stream, 4)});
    }
    e.print(std::cout);
    std::cout << "uncorrectable @ full bandwidth: "
              << TextTable::num(
                     dram.uncorrectablePerSecAtFullBandwidth() * 3600,
                     4)
              << " events/hour/chip\n";

    const double work = smoke ? 3600.0 : 24 * 3600.0;
    CheckpointPolicy ckpt;
    ckpt.enabled = true;
    ckpt.intervalSec = 600.0;
    ckpt.saveSec = 5.0;
    ckpt.restartSec = 30.0;
    const CheckpointPolicy off;
    TextTable c("checkpoint/restart, " +
                TextTable::num(work / 3600.0, 0) + " h of work");
    c.header({"errors/s", "no ckpt (h)", "ckpt 10min (h)",
              "ckpt wins"});
    for (double rate : {0.0, 1e-5, 1e-4, 1e-3}) {
        const double bare =
            resilience::timeWithCheckpointRestart(work, rate, off);
        const double saved =
            resilience::timeWithCheckpointRestart(work, rate, ckpt);
        c.row({TextTable::num(rate, 5),
               TextTable::num(bare / 3600.0, 3),
               TextTable::num(saved / 3600.0, 3),
               saved < bare ? "yes" : "no"});
    }
    c.print(std::cout);
    std::cout << "with no checkpoints an uncorrectable error forfeits "
                 "half the run on\naverage; the 10-minute cadence caps "
                 "rework at interval/2 + restart.\n";
}

} // anonymous namespace

int
runBench(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            fatal("unknown flag '%s' (--smoke)", argv[i]);
    }

    trainingSweep(smoke);
    chipSweep(smoke);
    // The chip-sim-driven cluster sweep is not part of the golden
    // smoke output (it exists since PR 3); full runs only.
    if (!smoke)
        chipClusterSweep();
    const std::vector<ElasticPoint> elastic = elasticSweep(smoke);
    eccCheckpointCurves(smoke);
    writeResilienceJson(elastic);
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
