/**
 * @file
 * The one check behind every bench golden (ctest label bench-golden;
 * ascend_bench_golden in bench/CMakeLists.txt registers the runs):
 *
 *   golden_run <golden> <output> <bench> [args...]
 *
 * runs <bench> with <args> in the current directory, requires exit 0,
 * and compares what it produced against the file <golden> through
 * diffGolden, the one normalizer. <output> "-" names the bench's
 * stdout; any other value names a file the bench writes (relative to
 * the current directory), and stdout is then only kept in stdout.txt.
 *
 * With the switch ASCEND_UPDATE_GOLDEN on (malformed: refused with
 * exit 1 before the bench runs) the output is written to <golden>
 * instead and the exit code is 77, which ctest reports as skipped (as
 * expectGolden).
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "bench_util.hh"
#include "common/atomic_file.hh"
#include "common/field.hh"
#include "common/golden.hh"

extern char **environ;

using namespace ascend;

int
runBench(int argc, char **argv)
{
    if (argc < 4) {
        std::cerr << "usage: golden_run <golden> <output|-> <bench> "
                     "[args...]\n";
        return 2;
    }
    const bool update =
        envValue<bool>("ASCEND_UPDATE_GOLDEN").value_or(false);
    const std::string golden = argv[1];
    const std::string output =
        std::string(argv[2]) == "-" ? "stdout.txt" : argv[2];
    // A stale file from an earlier run must not pass for this one.
    std::remove(output.c_str());

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     "stdout.txt",
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    int status = 0;
    const bool spawned =
        posix_spawn(&pid, argv[3], &actions, nullptr, argv + 3,
                    environ) == 0 &&
        waitpid(pid, &status, 0) == pid;
    posix_spawn_file_actions_destroy(&actions);
    if (!spawned || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::cerr << "golden_run: " << argv[3] << " did not exit 0\n";
        return 1;
    }

    const std::optional<std::string> actual = readFile(output);
    if (!actual) {
        std::cerr << "golden_run: no output " << output << "\n";
        return 1;
    }
    if (update) {
        if (!writeFileText(golden, *actual)) {
            std::cerr << "golden_run: cannot write " << golden << "\n";
            return 1;
        }
        std::cerr << "golden regenerated: " << golden << "\n";
        return 77;
    }
    const std::optional<std::string> expected = readFile(golden);
    if (!expected) {
        std::cerr << "golden_run: cannot read " << golden
                  << " (regenerate: ASCEND_UPDATE_GOLDEN=1 ctest -L "
                     "bench-golden)\n";
        return 1;
    }
    const std::string diff = diffGolden(*expected, *actual);
    if (diff.empty())
        return 0;
    std::cerr << "golden mismatch vs " << golden << ":\n" << diff;
    return 1;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
