#!/usr/bin/env bash
# Build the perf driver (Release, against the library in ../src) and
# run the benchmark. Run from anywhere; paths resolve from the repo root.
#
#   perf/run.sh                                   all four workloads
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   perf/run.sh --smoke [--trace 1]               ~1 s per workload
#   perf/run.sh --check                           T1 / T<n> / traced digests
#   perf/run.sh --freeze                          rewrite perf/golden/*
#
# Every ASCEND_* variable is cleared; ASCEND_THREADS is min(4, nproc/2).
# The last stdout line of a single-workload run is its JSON result. A
# full pass prints one result line per workload and exits nonzero if
# any op failed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

for var in $(compgen -e); do
    case "$var" in ASCEND_*) unset "$var" ;; esac
done
# Half the CPUs, at most 4: on a shared host, a pool as wide as the
# machine waits on whichever worker the OS or a neighbour preempts,
# and run-to-run spread grows two- to four-fold (perf/README.md).
threads=$(( $(nproc) / 2 ))
if [ "$threads" -gt 4 ]; then threads=4; fi
if [ "$threads" -lt 1 ]; then threads=1; fi
export ASCEND_THREADS="$threads"

build=".bench_build/perf"
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S perf -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target perf_driver -j "$(nproc)" >&2
driver="$build/perf_driver"

workload="" seed=1 seconds=15 trace=0 mode=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
                trace="$2"; shift 2
            else
                trace=1; shift
            fi ;;
        --smoke) seconds=1; shift ;;
        --check|--freeze) mode="$1"; shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

if [ -n "$mode" ]; then
    exec "$driver" "$mode"
fi
if [ -n "$workload" ]; then
    exec "$driver" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace"
fi

# Full pass: one process per workload, untraced, then traced if asked.
status=0
for w in dse-exact graph-sweep llm-fleet chip-fanout; do
    passes=0
    if [ "$trace" = 1 ]; then passes="0 1"; fi
    for t in $passes; do
        "$driver" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$t" || status=1
    done
done
exit "$status"
