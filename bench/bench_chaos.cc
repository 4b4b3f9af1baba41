/**
 * @file
 * Chaos harness for the elastic cluster engine: prove with real
 * SIGKILLs that a run killed at an arbitrary recovery-event boundary
 * and re-invoked resumes from its last on-disk checkpoint and
 * produces a byte-identical report.
 *
 * Every CHAOS-EVENT marker — and therefore every kill point — lands
 * at an event boundary of the engine loop: onEvent fires as a
 * checkpoint, failure, rollback or step logs its line, never
 * mid-phase. Checkpoints themselves are taken only at the head of an
 * instant, before its faults and step, which is what makes any
 * kill-resume pair replay the identical sequence of events.
 *
 * Three modes:
 *  - (no args) soak: run the chaos scenario for two seeds in-process
 *    and print the elastic outcome tables (a normal bench);
 *  - --chaos: the CI mode. Computes the uninterrupted report, then
 *    for >= 3 kill points forks a child (`--run`), counts its
 *    flushed CHAOS-EVENT markers, SIGKILLs it after the k-th, runs
 *    a resume child to completion and byte-diffs its report file
 *    against the uninterrupted one. Exit 1 on any mismatch.
 *  - --run: child mode. Executes the seeded scenario with on-disk
 *    checkpoints, emitting one CHAOS-EVENT line per recovery event
 *    (with a short sleep so the parent's kill lands mid-run) and
 *    writing the final report to --out.
 *
 * The seed comes from ASCEND_CHAOS_SEED (default 3); CI runs two.
 * Everything simulated is deterministic — the only nondeterminism is
 * *where* the kill lands, which the contract makes irrelevant.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
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

std::uint64_t
seedFromEnv()
{
    const char *env = std::getenv("ASCEND_CHAOS_SEED");
    return env && *env ? std::strtoull(env, nullptr, 10) : 3;
}

ElasticRunResult
runScenario(Scenario &sc)
{
    return cluster::runElastic(sc.job, sc.cl, sc.chips, sc.steps,
                               sc.faults, sc.retry, sc.mode,
                               sc.options);
}

/** Child mode: run with on-disk checkpoints, marking every event. */
int
childMain(std::uint64_t seed, const std::string &ckpt_dir,
          const std::string &out_path)
{
    Scenario sc = scenario(seed);
    sc.options.checkpointDir = ckpt_dir;
    unsigned events = 0;
    sc.options.onEvent = [&events](const std::string &) {
        std::printf("CHAOS-EVENT %u\n", ++events);
        std::fflush(stdout);
        // Give the parent's SIGKILL a window to land mid-run; wall
        // clock never feeds back into simulated results.
        ::usleep(20 * 1000);
    };
    const ElasticRunResult r = runScenario(sc);
    if (!writeFileText(out_path, r.report())) {
        std::fprintf(stderr, "chaos child: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    return 0;
}

/** Fork/exec a child run; returns its pid, stdout on @p out_fd. */
pid_t
spawnChild(const char *self, std::uint64_t seed,
           const std::string &ckpt_dir, const std::string &out_path,
           int *out_fd)
{
    int fds[2];
    if (::pipe(fds) != 0)
        fatal("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork failed");
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        const std::string seed_str = std::to_string(seed);
        const char *argv[] = {self,
                              "--run",
                              "--seed",
                              seed_str.c_str(),
                              "--ckpt-dir",
                              ckpt_dir.c_str(),
                              "--out",
                              out_path.c_str(),
                              nullptr};
        ::execv(self, const_cast<char *const *>(argv));
        std::perror("execv");
        ::_exit(127);
    }
    ::close(fds[1]);
    *out_fd = fds[0];
    return pid;
}

/** Read event-marker lines until @p kill_after, then SIGKILL. */
void
killAfterEvents(pid_t pid, int out_fd, unsigned kill_after)
{
    FILE *stream = ::fdopen(out_fd, "r");
    char line[256];
    unsigned seen = 0;
    while (seen < kill_after &&
           std::fgets(line, sizeof(line), stream)) {
        if (std::strncmp(line, "CHAOS-EVENT ", 12) == 0)
            ++seen;
    }
    ::kill(pid, SIGKILL);
    // Drain whatever raced out before the kill took effect.
    while (std::fgets(line, sizeof(line), stream)) {
    }
    std::fclose(stream);
    int status = 0;
    ::waitpid(pid, &status, 0);
}

/** One kill-and-resume experiment; true when the diff is empty. */
bool
chaosExperiment(const char *self, std::uint64_t seed,
                unsigned kill_after, const std::string &golden,
                const std::string &work_dir)
{
    const std::string ckpt_dir = work_dir + "/ckpt";
    const std::string out_path = work_dir + "/out.txt";
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
    std::filesystem::create_directories(ckpt_dir, ec);

    int out_fd = -1;
    const pid_t victim =
        spawnChild(self, seed, ckpt_dir, out_path, &out_fd);
    killAfterEvents(victim, out_fd, kill_after);

    // Resume (or, if the victim finished first, re-run) to completion.
    const pid_t resumed =
        spawnChild(self, seed, ckpt_dir, out_path, &out_fd);
    {
        FILE *stream = ::fdopen(out_fd, "r");
        char line[256];
        while (std::fgets(line, sizeof(line), stream)) {
        }
        std::fclose(stream);
    }
    int status = 0;
    ::waitpid(resumed, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::cerr << "chaos: resume child failed (seed " << seed
                  << ", kill after " << kill_after << ")\n";
        return false;
    }

    const std::optional<std::string> resumed_report = readFile(out_path);
    if (!resumed_report) {
        std::cerr << "chaos: missing report " << out_path << "\n";
        return false;
    }
    const std::string diff = diffGolden(golden, *resumed_report);
    if (!diff.empty()) {
        std::cerr << "chaos: resumed report differs (seed " << seed
                  << ", kill after " << kill_after << "):\n"
                  << diff;
        return false;
    }
    return true;
}

int
chaosMain(const char *self)
{
    const std::uint64_t seed = seedFromEnv();
    Scenario sc = scenario(seed);
    const ElasticRunResult uninterrupted = runScenario(sc);
    const std::string golden = uninterrupted.report();

    unsigned total_events = 0;
    for (char c : uninterrupted.eventLog)
        if (c == '\n')
            ++total_events;
    std::cout << "chaos seed " << seed << ": " << total_events
              << " recovery events, "
              << (uninterrupted.completed ? "completed" : "failed")
              << " in " << uninterrupted.stepsDone << " steps\n";
    if (total_events < 3) {
        std::cerr << "chaos: scenario too quiet (" << total_events
                  << " events); pick another seed\n";
        return 1;
    }

    // Kill at >= 3 distinct event boundaries spread across the run.
    std::vector<unsigned> kill_points = {1, total_events / 2,
                                         total_events - 1};
    std::sort(kill_points.begin(), kill_points.end());
    kill_points.erase(
        std::unique(kill_points.begin(), kill_points.end()),
        kill_points.end());

    const std::string work_dir =
        "chaos_work_" + std::to_string(::getpid());
    bool ok = true;
    for (unsigned k : kill_points) {
        const bool pass =
            chaosExperiment(self, seed, k, golden, work_dir);
        std::cout << "  kill after event " << k << ": "
                  << (pass ? "resumed byte-identical" : "MISMATCH")
                  << "\n";
        ok = ok && pass;
    }
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
    std::cout << (ok ? "chaos: all kill points byte-identical\n"
                     : "chaos: FAILED\n");
    return ok ? 0 : 1;
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
main(int argc, char **argv)
{
    bool run_mode = false, chaos_mode = false;
    std::uint64_t seed = seedFromEnv();
    std::string ckpt_dir, out_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--run") == 0) {
            run_mode = true;
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            chaos_mode = true;
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--ckpt-dir") == 0 &&
                   i + 1 < argc) {
            ckpt_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out_path = argv[++i];
        } else {
            fatal("unknown flag '%s' (--chaos | --run --seed <n> "
                  "--ckpt-dir <d> --out <f>)",
                  argv[i]);
        }
    }
    if (run_mode)
        return childMain(seed, ckpt_dir, out_path);
    if (chaos_mode)
        return chaosMain("/proc/self/exe");
    soak();
    return 0;
}
