#!/usr/bin/env bash
# Failure rate of a command under CPU pressure: starts `nproc x 2` busy
# loops, runs the command <n> times, prints `fails=k/n` and kills the
# loops on exit. A rate, not a unit test — it is how a schedule-dependent
# failure (one that an idle machine never produces) is counted before and
# after a change. Exits non-zero when any run failed; the last failing
# run's output tail goes to stderr.
#
#   scripts/under_load.sh 40 target/debug/deps/txn_concurrency-<hash>
#   scripts/under_load.sh 20 cargo test -q --test txn_concurrency
set -euo pipefail
[ $# -ge 2 ] || { echo "usage: $0 <n> <cmd...>" >&2; exit 2; }
n=$1
shift

loops=()
out=$(mktemp)
trap 'kill "${loops[@]}" 2>/dev/null || true; rm -f "$out"' EXIT
for _ in $(seq $(($(nproc) * 2))); do
  (while :; do :; done) &
  loops+=($!)
done

fails=0
for _ in $(seq "$n"); do
  if ! "$@" >"$out" 2>&1; then
    fails=$((fails + 1))
    tail -n 20 "$out" >&2
  fi
done
echo "fails=$fails/$n"
[ "$fails" -eq 0 ]
