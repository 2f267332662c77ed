#!/usr/bin/env bash
# Non-test Rust lines per crate: for every .rs file under a crate's src/,
# the lines before its first `#[cfg(test)]` (the whole file if it has
# none). This is the figure a simplicity PR quotes; comments and blank
# lines count, so reformatting does not move it much and deleting a
# reason-giving comment shows up as what it is.
#
#   scripts/loc.sh            # every crate, then the total
#   scripts/loc.sh core       # one crate, file by file
#   scripts/loc.sh src        # the root crate (lib.rs, bin/s4.rs), file by file
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # lines before the first #[cfg(test)] of each file given
  awk 'FNR == 1 { skip = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' "$@"
}

if [ $# -ge 1 ]; then
  dir="crates/$1/src"
  [ "$1" = src ] && dir=src
  for f in $(find "$dir" -name '*.rs' | sort); do
    printf '%6d  %s\n' "$(count "$f")" "$f"
  done
  printf '%6d  %s (non-test)\n' "$(count $(find "$dir" -name '*.rs'))" "$dir"
  exit 0
fi

total=0
for dir in crates/*/src src; do
  n=$(count $(find "$dir" -name '*.rs'))
  printf '%6d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%6d  total non-test Rust lines\n' "$total"
