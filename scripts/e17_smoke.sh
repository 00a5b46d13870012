#!/bin/sh
# E17 resident-service smoke: build scijob once, take a one-shot run's
# output sha256 as the byte-identity baseline, start the query service on an
# ephemeral port, fire concurrent submissions of the same query (so repeats
# race the cold run), and assert that every response's sha matches the
# one-shot baseline and that the segment cache recorded hits
# (scikey_cache_hit_total > 0 on /metrics, scraped with the binary's own
# -scrape mode — no curl needed).
set -eu

dir="$(mktemp -d)"
srv_pid=""
cleanup() {
    [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

query="-side 48 -strategy transform -codec block+zlib -splits 4 -reducers 2"

echo "e17: building scijob"
go build -o "$dir/scijob" ./cmd/scijob

echo "e17: one-shot baseline run"
# shellcheck disable=SC2086
"$dir/scijob" $query >"$dir/oneshot.txt"
want="$(sed -n 's/.*output sha256: *//p' "$dir/oneshot.txt")"
[ -n "$want" ] || { echo "e17: one-shot run printed no output sha" >&2; exit 1; }

echo "e17: starting query service"
"$dir/scijob" -serve 127.0.0.1:0 >"$dir/serve.txt" 2>"$dir/serve.err" &
srv_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|query service on http://\([^ ]*\).*|\1|p' "$dir/serve.txt")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "e17: service never announced its address" >&2; cat "$dir/serve.err" >&2; exit 1; }

n=6
echo "e17: $n concurrent submissions of the same query against $addr"
i=1
while [ "$i" -le "$n" ]; do
    # shellcheck disable=SC2086
    "$dir/scijob" -submit "$addr" $query >"$dir/submit.$i.txt" 2>&1 &
    eval "pid_$i=\$!"
    i=$((i + 1))
done
i=1
while [ "$i" -le "$n" ]; do
    eval "wait \$pid_$i" || { echo "e17: submission $i failed" >&2; cat "$dir/submit.$i.txt" >&2; exit 1; }
    i=$((i + 1))
done

i=1
while [ "$i" -le "$n" ]; do
    got="$(sed -n 's/.*output sha256: *//p' "$dir/submit.$i.txt")"
    if [ "$got" != "$want" ]; then
        echo "e17: submission $i sha $got != one-shot sha $want" >&2
        cat "$dir/submit.$i.txt" >&2
        exit 1
    fi
    i=$((i + 1))
done

"$dir/scijob" -scrape "$addr/metrics" >"$dir/metrics.txt"
hits="$(sed -n 's/^scikey_cache_hit_total //p' "$dir/metrics.txt")"
[ -n "$hits" ] || { echo "e17: scikey_cache_hit_total missing from /metrics" >&2; exit 1; }
if [ "$hits" -le 0 ]; then
    echo "e17: scikey_cache_hit_total = $hits, want > 0 (repeats never hit the cache)" >&2
    exit 1
fi

kill "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
srv_pid=""

echo "e17: OK — $n/$n responses byte-identical to one-shot, $hits cache hits"
