#!/usr/bin/env bash
# Non-test Rust lines per crate: for every .rs file under a crate's src/
# (and crates/bench/benches, the figure harnesses), the lines before its
# first `#[cfg(test)]` (the whole file if it has none). This is the figure a simplicity PR quotes; comments and blank
# lines count, so reformatting does not move it much and deleting a
# reason-giving comment shows up as what it is.
#
#   scripts/loc.sh            # every crate, then the total
#   scripts/loc.sh core       # one crate, file by file (bench: src and benches)
#   scripts/loc.sh src        # the root crate (lib.rs, bin/s4.rs), file by file
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # lines before the first #[cfg(test)] of each file given
  awk 'FNR == 1 { skip = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' "$@"
}

if [ $# -ge 1 ]; then
  dirs=$(ls -d "crates/$1/src" "crates/$1/benches" 2>/dev/null || true)
  [ "$1" = src ] && dirs=src
  [ -n "$dirs" ] || { echo "loc.sh: no crate named $1" >&2; exit 1; }
  for f in $(find $dirs -name '*.rs' | sort); do
    printf '%6d  %s\n' "$(count "$f")" "$f"
  done
  printf '%6d  %s (non-test)\n' "$(count $(find $dirs -name '*.rs'))" "$(echo $dirs)"
  exit 0
fi

total=0
for dir in crates/*/src crates/bench/benches src; do
  n=$(count $(find "$dir" -name '*.rs'))
  printf '%6d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%6d  total non-test Rust lines\n' "$total"
