#!/bin/sh
# E14 worker-kill soak: run the sliding-median query on a real multi-process
# cluster (coordinator + 3 worker subprocesses) twice — fault-free, then with
# scheduled SIGKILLs on one worker's first map grant and another's first
# reduce grant. Both runs must verify against the reference, the killed run
# must report identical payload counters to the clean one, and at least one
# worker must actually have died by signal. Race-enabled end to end (workers
# re-exec the same binary). Strict byte identity of the output files is
# asserted by internal/clusterd's TestE2EKillRecoveryByteIdentical.
# A third run is made to fail (one attempt allowed, the first map attempt
# faulted): it must exit non-zero and take its coordinator and workers with it.
set -eu

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "e14: clean cluster run"
go run -race ./cmd/scijob -cluster 3 -side 64 -verify \
    >"$dir/clean.txt" 2>"$dir/clean.err"

echo "e14: killed cluster run (SIGKILL mid-map and mid-reduce)"
go run -race ./cmd/scijob -cluster 3 -side 64 -verify -retries 4 \
    -faults "seed=1;proc:0.0:kill@0;proc:1.1:kill@0" \
    >"$dir/killed.txt" 2>"$dir/killed.err"

# Payload counters and verification must be identical; modeled runtime and
# recovery lines legitimately differ (the killed run carries a recovery tax).
payload='records|bytes|splits|verification'
grep -E "$payload" "$dir/clean.txt" >"$dir/clean.payload"
grep -E "$payload" "$dir/killed.txt" >"$dir/killed.payload"
if ! diff -u "$dir/clean.payload" "$dir/killed.payload"; then
    echo "e14: payload counters diverged between clean and killed runs" >&2
    exit 1
fi

grep -q 'died (signal: killed)' "$dir/killed.err" || {
    echo "e14: expected at least one worker SIGKILLed" >&2
    cat "$dir/killed.err" >&2
    exit 1
}
grep -q 'recovery: ' "$dir/killed.txt" || {
    echo "e14: expected failed attempts reported in the killed run" >&2
    exit 1
}

echo "e14: failing cluster run (must exit non-zero and leave no subprocess)"
if go run -race ./cmd/scijob -cluster 2 -side 32 -retries 1 \
    -faults "seed=1;map:0:error@0" >"$dir/failed.txt" 2>"$dir/failed.err"; then
    echo "e14: a job whose only map attempt was faulted exited 0" >&2
    exit 1
fi
# Every subprocess of that run carries the run's own coordinator address.
addr="$(sed -n 's/^coordinator subprocess on \([^ ]*\) .*/\1/p' "$dir/failed.txt")"
[ -n "$addr" ] || {
    echo "e14: the failing run never started its cluster" >&2
    cat "$dir/failed.err" >&2
    exit 1
}
if pgrep -af -- "-(worker|coordinator) $addr"; then
    echo "e14: the failed run left those subprocesses behind" >&2
    exit 1
fi
echo "e14 worker-kill soak OK"
