/**
 * @file
 * The kill/resume chaos harness of both checkpointed engines
 * (bench_chaos drives runElastic, bench_serving --chaos runFleet). A
 * run SIGKILLed at any event boundary must resume from its last
 * on-disk checkpoint to a report byte-identical to the uninterrupted
 * run's. A bench supplies only a ChaosScenario; the harness runs:
 *
 *  - --run --seed <n> [--ckpt-dir <d>] --out <f>: the child. Runs the
 *    scenario (persistent only with --ckpt-dir), prints a flushed
 *    "CHAOS-EVENT <i>" line per event-log line it appends, sleeping
 *    briefly so a kill lands mid-run, and writes the report to --out;
 *  - --chaos: runs the reference with a checkpoint directory (the
 *    fleet logs its saves only when persistent). For the kill points
 *    {d, n/2, n-1} of its n events, d the first event whose marker
 *    finds a committed checkpoint on disk, it SIGKILLs a child after
 *    the k-th marker, runs a resume child and byte-diffs its report.
 *
 * A cold re-run writes the same report, so the diff alone cannot tell
 * a resume from a restart. Every save follows its own log line, so a
 * resume that adopted a checkpoint emits fewer markers than the run
 * has events. The harness also fails when (a) a resume emits them all
 * though a committed checkpoint (*.ckpt) was on disk once the victim
 * was reaped, or (b) no kill point ends in a SIGKILL and an adopting
 * resume. Neither depends on timing: a victim that completes removes
 * its file. Each failure is a stderr line and exit 1.
 */

#ifndef ASCEND_BENCH_CHAOS_HARNESS_HH
#define ASCEND_BENCH_CHAOS_HARNESS_HH

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <string>

#include "common/atomic_file.hh"
#include "common/field.hh"
#include "common/golden.hh"
#include "common/logging.hh"
#include "resilience/run_journal.hh"

namespace ascend {
namespace bench {

/** What one scenario run hands the harness. */
struct ChaosRun
{
    std::string report;  ///< the byte-compared report
    unsigned events = 0; ///< event-log lines of the whole run
    std::string summary; ///< printed after "chaos seed <n>: "
};

/** Run seed @p seed with @p control assigned into its options. */
using ChaosScenario = std::function<ChaosRun(
    std::uint64_t seed, const resilience::RunControl &control)>;

namespace detail {

/** The child's kill-point marker, one flushed line per event. */
constexpr char kChaosMarker[] = "CHAOS-EVENT ";

/** The --run mode: run the scenario, marking every event. */
inline int
chaosChildMain(const ChaosScenario &scenario, std::uint64_t seed,
               const std::string &ckpt_dir, const std::string &out_path)
{
    resilience::RunControl control;
    control.checkpointDir = ckpt_dir;
    unsigned events = 0;
    control.onEvent = [&events](const std::string &) {
        std::printf("%s%u\n", kChaosMarker, ++events);
        std::fflush(stdout);
        // Give the parent's SIGKILL a window to land mid-run; wall
        // clock never feeds back into simulated results.
        ::usleep(20 * 1000);
    };
    if (writeFileText(out_path, scenario(seed, control).report))
        return 0;
    std::cerr << "chaos child: cannot write " << out_path << "\n";
    return 1;
}

/** Fork/exec a --run child of this binary; its stdout on @p out. */
inline pid_t
spawnChild(std::uint64_t seed, const std::string &ckpt_dir,
           const std::string &out_path, FILE **out)
{
    const char *self = "/proc/self/exe";
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
        const char *argv[] = {self, "--run", "--seed", seed_str.c_str(),
                              "--ckpt-dir", ckpt_dir.c_str(), "--out",
                              out_path.c_str(), nullptr};
        ::execv(self, const_cast<char *const *>(argv));
        std::perror("execv");
        ::_exit(127);
    }
    ::close(fds[1]);
    *out = ::fdopen(fds[0], "r");
    return pid;
}

/**
 * Run a child, count its markers into @p markers and SIGKILL it after
 * the @p kill_after-th (0 = never); read its stdout to EOF, reap it
 * and return its wait status.
 */
inline int
killAfterEvents(std::uint64_t seed, const std::string &ckpt_dir,
                const std::string &out_path, unsigned kill_after,
                unsigned *markers)
{
    FILE *stream = nullptr;
    const pid_t pid = spawnChild(seed, ckpt_dir, out_path, &stream);
    char line[256];
    *markers = 0;
    while (std::fgets(line, sizeof(line), stream))
        if (std::string(line).rfind(kChaosMarker, 0) == 0 &&
            ++*markers == kill_after)
            ::kill(pid, SIGKILL);
    std::fclose(stream);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

/**
 * True when @p dir holds a committed checkpoint: a *.ckpt file, not a
 * save's temp file.
 */
inline bool
hasCheckpoint(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::directory_iterator files(dir, ec);
    return std::any_of(
        begin(files), end(files),
        [](const auto &f) { return f.path().extension() == ".ckpt"; });
}

/**
 * One kill-and-resume experiment in a fresh @p work_dir: true when
 * the resumed report equals @p reference byte for byte and check (a)
 * holds. Sets @p proved when the victim died by SIGKILL and the
 * resume adopted a checkpoint.
 */
inline bool
chaosExperiment(std::uint64_t seed, unsigned kill_after,
                const ChaosRun &reference, const std::string &work_dir,
                bool *proved)
{
    const auto fail = [&](const std::string &what,
                          const std::string &detail = "") {
        std::cerr << "chaos: " << what << " (seed " << seed
                  << ", kill after " << kill_after << ")\n"
                  << detail;
        return false;
    };
    const std::string ckpt_dir = work_dir + "/ckpt";
    const std::string out_path = work_dir + "/out.txt";
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
    std::filesystem::create_directories(ckpt_dir, ec);

    unsigned markers = 0;
    const int victim =
        killAfterEvents(seed, ckpt_dir, out_path, kill_after, &markers);
    const bool killed = WIFSIGNALED(victim) && WTERMSIG(victim) == SIGKILL;
    const bool on_disk = hasCheckpoint(ckpt_dir);

    // Resume (or, if the victim finished first, re-run) to completion.
    const int resumed = killAfterEvents(seed, ckpt_dir, out_path, 0,
                                        &markers);
    if (!WIFEXITED(resumed) || WEXITSTATUS(resumed) != 0)
        return fail("resume child failed");
    const bool adopted = markers < reference.events;
    *proved = *proved || (killed && adopted);
    bool ok = true;
    if (on_disk && !adopted)
        ok = fail("resume replayed all " + std::to_string(markers) +
                  " events past a checkpoint on disk");

    const std::optional<std::string> report = readFile(out_path);
    if (!report)
        return fail("missing report " + out_path);
    const std::string diff = diffGolden(reference.report, *report);
    if (!diff.empty())
        ok = fail("resumed report differs", diff);
    return ok;
}

/** The --chaos mode: every kill point of one seed. */
inline int
chaosMain(const ChaosScenario &scenario, std::uint64_t seed)
{
    const std::string work_dir =
        "chaos_work_" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
    // The first kill point is the first event whose marker finds a
    // committed checkpoint on disk: a victim killed earlier (the
    // checkpoint's own log line precedes its save) leaves nothing to
    // resume from.
    const std::string reference_dir = work_dir + "/reference";
    unsigned events = 0, first_durable = 0;
    resilience::RunControl control;
    control.checkpointDir = reference_dir;
    control.onEvent = [&](const std::string &) {
        ++events;
        if (!first_durable && hasCheckpoint(reference_dir))
            first_durable = events;
    };
    const ChaosRun reference = scenario(seed, control);
    const unsigned n = reference.events;
    std::cout << "chaos seed " << seed << ": " << reference.summary
              << "\n";
    if (n < 3) {
        std::cerr << "chaos: scenario too quiet (" << n
                  << " events); pick another seed\n";
        return 1;
    }
    if (first_durable == 0) {
        std::cerr << "chaos: no event follows a committed checkpoint; "
                     "pick another seed\n";
        return 1;
    }

    // Kill at up to 3 distinct event boundaries spread across the
    // run, each with a checkpoint to resume from.
    bool ok = true, proved = false;
    for (unsigned k : std::set<unsigned>{first_durable, n / 2, n - 1}) {
        if (k < first_durable)
            continue;
        const bool pass =
            chaosExperiment(seed, k, reference, work_dir, &proved);
        std::cout << "  kill after event " << k << ": "
                  << (pass ? "resumed byte-identical" : "FAILED")
                  << "\n";
        ok = ok && pass;
    }
    if (!proved)
        std::cerr << "chaos: no kill point both SIGKILLed its victim "
                     "and resumed from a checkpoint (seed "
                  << seed << ")\n";
    ok = ok && proved;
    std::filesystem::remove_all(work_dir, ec);
    std::cout << (ok ? "chaos: all kill points byte-identical\n"
                     : "chaos: FAILED\n");
    return ok ? 0 : 1;
}

} // namespace detail

/**
 * Run the chaos mode @p argv asks for (--chaos, or --run and its
 * flags) on @p scenario, seeded by ASCEND_CHAOS_SEED or else
 * @p default_seed. Returns its exit code, or nothing when neither
 * mode flag is given: the bench then runs its own sweep.
 */
inline std::optional<int>
chaosHarness(int argc, char **argv, std::uint64_t default_seed,
             const ChaosScenario &scenario)
{
    std::uint64_t seed =
        envValue<std::uint64_t>("ASCEND_CHAOS_SEED").value_or(default_seed);
    bool run_mode = false, chaos_mode = false;
    std::string ckpt_dir, out_path;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--run") {
            run_mode = true;
        } else if (flag == "--chaos") {
            chaos_mode = true;
        } else if (flag == "--seed" && i + 1 < argc) {
            seed = parseValue<std::uint64_t>("--seed", argv[++i]);
        } else if (flag == "--ckpt-dir" && i + 1 < argc) {
            ckpt_dir = argv[++i];
        } else if (flag == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            fatal("unknown flag '%s' (--chaos | --run --seed <n> "
                  "--ckpt-dir <d> --out <f>)",
                  argv[i]);
        }
    }
    if (run_mode)
        return detail::chaosChildMain(scenario, seed, ckpt_dir, out_path);
    if (chaos_mode)
        return detail::chaosMain(scenario, seed);
    return std::nullopt;
}

} // namespace bench
} // namespace ascend

#endif // ASCEND_BENCH_CHAOS_HARNESS_HH
