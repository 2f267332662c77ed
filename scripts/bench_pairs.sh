#!/usr/bin/env bash
# Alternating parent/change runs of the BENCHMARK.json command, the way
# a performance claim has to be measured here (one machine, a hypervisor
# that steals CPU for minutes at a time): pair i runs both sides back to
# back on seed i, the side that goes first flips every pair, and the
# verdict is pairs won plus both sides' medians and quartiles — never
# one run against one run.
#
#   scripts/bench_pairs.sh <parent-ref> <n> [workload] [--trace]
#                          [--claim <metric> <workload>]
#
# The parent is `git archive`d into target/bench_pairs/parent (a plain
# copy: nothing is left behind in .git, and it is rebuilt only when the
# ref moves); the change is the working tree, committed or not. Each
# side builds and runs from its own checkout, so each runs its own
# benchmark/ — which a change that claims a gain must not have touched.
# Without a workload every one in BENCHMARK.json runs. `--trace` runs the
# traced pass instead, whose result line carries the per-layer metrics
# (slower, and not what the driver gates). Every run's result line is
# kept in target/bench_pairs/runs/ and every value is printed.
#
# `--claim` ends the report with one verdict line by the rule a claimed
# gain has to meet (choosing-metrics guide, section 8): the change wins
# at least nine tenths of the pairs run, ties counting for neither side,
# and the medians differ, in the metric's better direction, by more than
# the distance between the parent's own quartiles. The exit status is 1
# when it does not. With or without a claim, every end-to-end metric
# whose change median is worse than the parent's by more than its
# BENCHMARK.json bound is listed, and one whose parent runs spread wider
# than the bound is listed as unresolved.
set -euo pipefail
usage="usage: $0 <parent-ref> <n> [workload] [--trace] [--claim <metric> <workload>]"
traced=0
claim=
args=()
while [ $# -gt 0 ]; do
  case $1 in
    --trace) traced=1 ;;
    --claim)
      [ $# -ge 3 ] || { echo "$usage" >&2; exit 2; }
      claim="$3 $2"
      shift 2 ;;
    *) args+=("$1") ;;
  esac
  shift
done
[ ${#args[@]} -ge 2 ] || { echo "$usage" >&2; exit 2; }
ref=${args[0]}
n=${args[1]}
only=${args[2]:-}

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
spec=$root/BENCHMARK.json
work=$root/target/bench_pairs
parent=$work/parent
runs=$work/runs

# The three things this script needs from BENCHMARK.json, which is
# written one value per line: the command, the run length, and for every
# name its section (workloads / end_to_end / per_layer) and direction.
mapfile -t cmd < <(awk '/"command": \[/ { on = 1; next } on && /\]/ { exit }
  on { gsub(/^[ \t]*"|",?[ \t]*$/, ""); print }' "$spec")
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$spec")
names=$(awk '/^  "[a-z_]+": \[/ { gsub(/[ ":\[]/, ""); section = $0 }
  /"name":/ { gsub(/^.*"name": "|",?[ \t]*$/, ""); name = $0
              if (section == "workloads") print section, name }
  /"better":/ { gsub(/^.*"better": "|",?[ \t]*$/, ""); print section, name, $0 }
  /"bound":/ { gsub(/^.*"bound": |,?[ \t]*$/, ""); print "bound", name, $0 }' "$spec")
workloads=$(awk '$1 == "workloads" { print $2 }' <<<"$names")
if [ -n "$only" ]; then
  grep -qx "$only" <<<"$workloads" || { echo "no workload $only in BENCHMARK.json" >&2; exit 2; }
  workloads=$only
fi
if [ -n "$claim" ]; then
  grep -qx "${claim% *}" <<<"$workloads" || { echo "claimed workload ${claim% *} is not one this run measures" >&2; exit 2; }
  grep -q " ${claim#* } \(lower\|higher\)$" <<<"$names" || { echo "no metric ${claim#* } in BENCHMARK.json" >&2; exit 2; }
fi

sha=$(git rev-parse --verify "$ref^{commit}")
if [ "$(cat "$parent/.bench_pairs_sha" 2>/dev/null)" != "$sha" ]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
  echo "$sha" >"$parent/.bench_pairs_sha"
fi
rm -rf "$runs"
mkdir -p "$runs"

# Build both sides before the first timed run (a `--smoke` run of the
# cheapest workload is the build plus a second).
first=$(head -n 1 <<<"$workloads")
for side in "$parent" "$root"; do
  (cd "$side" && "${cmd[@]}" --workload "$first" --seed 1 --seconds 1 --trace 0 --smoke >/dev/null)
done

run_side() { # <dir> <workload> <seed> <out>
  # The result line is the last one; a run that fails its output checks
  # exits 1 and still prints it, so the failure shows as failed ops.
  (cd "$1" && "${cmd[@]}" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$traced") |
    tail -n 1 >"$4" || true
}

echo "parent $sha, $n pairs, $seconds s per run, trace $traced"
for pair in $(seq "$n"); do
  for w in $workloads; do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      dir=$root
      [ "$side" = parent ] && dir=$parent
      run_side "$dir" "$w" "$pair" "$runs/$w.$pair.$side.json"
    done
    echo "pair $pair $w ($order)"
  done
done

# One row per run and metric: workload pair side metric value.
for f in "$runs"/*.json; do
  base=$(basename "$f" .json)
  IFS=. read -r w pair side <<<"$base"
  grep -o '"[a-z_.0-9]*":{"value":[^,}]*' "$f" |
    sed -e 's/^"//' -e 's/":{"value":/ /' -e "s/^/$w $pair $side /"
  sed -E 's/.*"attempted":([0-9.e+]+),"failed":([0-9.e+]+).*/\1 \2/' "$f" |
    awk -v p="$w $pair $side" '{ print p, "failed_ops", $2; print p, "attempted_ops", $1 }'
done >"$work/values.txt"

awk -v dirs="$names" -v claim="$claim" '
  function quantile(v, cnt, k,    pos, lo, frac) { # statistics.quantiles(n=4), exclusive
    if (cnt == 1) return v[1]
    pos = (cnt + 1) * k / 4
    if (pos < 1) pos = 1
    if (pos > cnt) pos = cnt
    lo = int(pos); frac = pos - lo
    return lo == cnt ? v[cnt] : v[lo] + frac * (v[lo + 1] - v[lo])
  }
  # Sets q[1..3] to the quartiles of `key` on one side and lo/hi to its
  # extremes; returns the number of runs.
  function quartiles(key, side,    cnt, i, v, tmp, j) {
    cnt = 0
    for (i = 1; i <= pairs; i++) if ((key, i, side) in val) v[++cnt] = val[key, i, side]
    for (i = 2; i <= cnt; i++) for (j = i; j > 1 && v[j] < v[j - 1]; j--) { tmp = v[j]; v[j] = v[j - 1]; v[j - 1] = tmp }
    for (i = 1; i <= 3 && cnt > 0; i++) q[i] = quantile(v, cnt, i)
    lo = v[1]; hi = v[cnt]
    return cnt
  }
  function summary(key, side) {
    if (quartiles(key, side) == 0) return "-"
    return sprintf("%.6g [%.6g, %.6g]", q[2], q[1], q[3])
  }
  BEGIN {
    m = split(dirs, line, "\n")
    for (i = 1; i <= m; i++) {
      split(line[i], f, " ")
      if (f[1] == "bound") bound[f[2]] = f[3]; else if (f[3] != "") better[f[2]] = f[3]
    }
    better["failed_ops"] = "lower"
  }
  $5 != "null" {
    key = $1 " " $4
    if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
    val[key, $2, $3] = $5 + 0
    if ($2 + 0 > pairs) pairs = $2 + 0
  }
  END {
    print "\nevery run (workload metric: parent/change by pair):"
    for (k = 1; k <= keys; k++) {
      key = order[k]; row = ""
      for (i = 1; i <= pairs; i++) row = row sprintf("  %.6g/%.6g", val[key, i, "parent"], val[key, i, "change"])
      print key ":" row
    }
    print "\nworkload metric | parent median [q1, q3] | change median [q1, q3] | pairs won by change / by parent / tied"
    for (k = 1; k <= keys; k++) {
      key = order[k]; split(key, f, " ")
      if (!(f[2] in better)) continue
      won = lost = tied = 0
      for (i = 1; i <= pairs; i++) {
        if (!((key, i, "parent") in val) || !((key, i, "change") in val)) continue
        d = val[key, i, "change"] - val[key, i, "parent"]
        if (better[f[2]] == "higher") d = -d
        if (d < 0) won++; else if (d > 0) lost++; else tied++
      }
      printf "%s | %s | %s | %d / %d / %d\n", key, summary(key, "parent"), summary(key, "change"), won, lost, tied
      wins[key] = won; run[key] = won + lost + tied
    }

    # Every gated metric against its bound; `sign` turns "worse" into "+".
    print "\nworse than the parent by more than the bound, or unresolved:"
    for (k = 1; k <= keys; k++) {
      key = order[k]; split(key, f, " ")
      if (!(f[2] in bound) || quartiles(key, "parent") == 0) continue
      pmed = q[2]; spread = q[3] - q[1]; plo = lo; phi = hi
      if (quartiles(key, "change") == 0) continue
      sign = better[f[2]] == "higher" ? -1 : 1
      worse = sign * (q[2] - pmed)
      clear = sign > 0 ? hi < plo : lo > phi
      if (worse > bound[f[2]] * pmed)
        printf "REGRESSION %s: %.6g -> %.6g (%+.1f %%, bound %g %%)\n", key, pmed, q[2], 100 * worse / pmed, 100 * bound[f[2]]
      else if (spread > bound[f[2]] * pmed && !clear)
        printf "unresolved %s: %.6g -> %.6g, the parent quartiles are %.0f %% of its median apart, wider than the %g %% bound\n", key, pmed, q[2], 100 * spread / pmed, 100 * bound[f[2]]
    }

    if (claim == "") exit 0
    split(claim, f, " ")
    quartiles(claim, "parent"); pmed = q[2]; spread = q[3] - q[1]
    quartiles(claim, "change")
    gain = better[f[2]] == "higher" ? q[2] - pmed : pmed - q[2]
    met = run[claim] > 0 && 10 * wins[claim] >= 9 * run[claim] && gain > spread
    printf("\nclaim %s: %s - the change won %d of %d pairs (needs nine tenths), medians %.6g -> %.6g, %s by %.6g against %.6g between the parent quartiles\n",
      claim, met ? "MET" : "NOT MET", wins[claim], run[claim], pmed, q[2], gain > 0 ? "better" : "worse", gain < 0 ? -gain : gain, spread)
    exit !met
  }' "$work/values.txt"
