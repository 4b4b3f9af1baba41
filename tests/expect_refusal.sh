#!/bin/sh
# Check that a program refuses an outside value (a malformed ASCEND_*
# variable or flag) at start-up:
#
#   expect_refusal.sh [--stale <golden> <copy>] <needle> <command> [args...]
#
# Passes when <command> exits 1 (a refusal, not a crash), prints
# nothing on stdout and names <needle> on stderr. With --stale, <copy> is first written as
# <golden> plus one stale line, and must be byte-unchanged after the
# run: a golden the run was not asked to rewrite stays as it was.
set -u

stale_copy=""
if [ "$1" = "--stale" ]; then
    stale_copy="$3"
    { cat "$2" && echo "stale line"; } > "$stale_copy" || exit 1
    cp "$stale_copy" "$stale_copy.before" || exit 1
    shift 3
fi
needle="$1"
shift

"$@" > refusal_stdout.txt 2> refusal_stderr.txt
status=$?
cat refusal_stderr.txt
if [ "$status" -ne 1 ]; then
    echo "FAIL: $* exited $status, not 1"
    exit 1
fi
if [ -s refusal_stdout.txt ]; then
    echo "FAIL: $* printed on stdout before refusing:"
    cat refusal_stdout.txt
    exit 1
fi
if ! grep -qF -e "$needle" refusal_stderr.txt; then
    echo "FAIL: stderr does not name '$needle'"
    exit 1
fi
if [ -n "$stale_copy" ] && ! cmp "$stale_copy" "$stale_copy.before"; then
    echo "FAIL: $stale_copy was rewritten"
    exit 1
fi
echo "refused: $needle"
