#!/usr/bin/env bash
# Pub census: every public item outside s4-bench is used outside its
# crate, as the compiler sees it, not as a name search does.
#
# On a copy of the tree in a temporary directory, every `pub fn`,
# `pub const fn`, `pub struct`, `enum`, `const`, `type`, `trait`,
# `static`, `mod` and `use` before its file's first `#[cfg(test)]`, in
# every crate but s4-bench, is made `pub(crate)` — a `pub use` group
# first split into one `pub use` per name, so that a crate's own
# re-export is not a use of what it re-exports (a glob `pub use …::*`
# stays). Then `cargo check --workspace --all-targets` and the
# benchmark's `cargo check --locked` run in rounds, and each round puts
# `pub` back on what its errors name:
#
#   E0603, E0624  a private item or method: the error points at the
#                 definition — and, through a re-export, at the `use`
#                 too — which is restored;
#   E0364, E0365, a re-export of one, or an import through a glob
#   E0432         re-export that no longer carries it: the error points
#                 at the `use`, so the item of that name is restored in
#                 the crate the path names (its first segment, or the
#                 crate of the `use` for `crate::`, `self::` and bare
#                 names), not in every crate, and in the crates that one
#                 glob re-exports;
#   E0446         a crate-private type as a pub trait impl's associated
#                 type: restored in the crate of the impl;
#   "type `…` is private" (no code)  a private type a caller reaches
#                 through a public signature: restored by the path's
#                 last segment, generic arguments stripped, in the crate
#                 its first segment names, or in any crate when the path
#                 is relative to the defining crate (`srctree::FileHistory`).
#
# A crate whose dependency fails is not checked, so it takes about one
# round per layer of the crate graph and of module nesting. When a round
# restores nothing the check must pass; whatever is still narrowed then
# has no user outside its crate and fails the census, unless `allowed`
# below names it with the reason it stays `pub`. Doc examples are not
# compiled by `cargo check`, so an item only a doc example uses goes on
# the list. A name match is not a use: an item named only in another
# crate's comment fails.
#
#   scripts/pub_census.sh       # ~2.5 min cold on 2 cores, 62 rounds
set -euo pipefail
cd "$(dirname "$0")/.."

# crate, item name (a glob), why it stays pub with no user outside.
allowed='
delta     encoded_len  the s4-delta crate doc calls Delta::encoded_len
workloads tiny         the s4-workloads crate doc calls PostmarkConfig::tiny
torture   Rig          the bound of Scenario::Rig, which tests/ implement
obs       HistogramSnapshot  the payload of Sample::Histogram, named by no path outside
'
is_allowed() { # crate name
  local c pat why
  while read -r c pat why; do
    # shellcheck disable=SC2053 # $pat is a glob on purpose
    [ "$c" = "$1" ] && [[ $2 == $pat ]] && return 0
  done <<< "$allowed"
  return 1
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tree=$work/tree
mkdir "$tree"
git ls-files --cached --others --exclude-standard -z \
  | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
  | tar --null -T - -cf - | tar -xf - -C "$tree"

# `pub use a::{B, C as D};` becomes `pub use a::B;` and `pub use a::C as D;`.
srcs=$(cd "$tree" && find crates/*/src -name '*.rs' ! -path 'crates/bench/*' | sort)
for f in $srcs; do
  perl -0pi -e 's{^([ \t]*)pub use ([\w:]+)::\{([^{}]*)\};}{
    my ($ind, $path) = ($1, $2);
    join "\n", map { $_ eq "self" ? "${ind}pub use $path;" : "${ind}pub use ${path}::$_;" }
      grep { length } split /\s*,\s*/, $3 =~ s/^\s+|\s+$//gr }gme' "$tree/$f"
done

# One line per narrowed item: file line kind name. An item a macro
# declares (`pub fn $name`) counts once, as `$name`; a re-export is the
# kind `use`, named by its last segment or its alias.
narrowed=$work/narrowed
for f in $srcs; do
  awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
       match($0, /^[[:space:]]*pub use [A-Za-z0-9_:]+( as [A-Za-z_][A-Za-z0-9_]*)?;/) {
         n = split(substr($0, RSTART, RLENGTH - 1), w, /[ :]+/); print f, FNR, "use", w[n]; next }
       match($0, /^[[:space:]]*pub ((const )?fn|struct|enum|const|type|trait|static|mod) \$?[A-Za-z_][A-Za-z0-9_]*/) {
         n = split(substr($0, RSTART, RLENGTH), w, " "); print f, FNR, w[n - 1], w[n] }' "$tree/$f"
done > "$narrowed"
while read -r f line _; do
  sed -i "${line}s/^\([[:space:]]*\)pub /\1pub(crate) /" "$tree/$f"
done < "$narrowed"
echo "pub census: $(wc -l < "$narrowed") items narrowed:" \
  "$(awk '{ print $3 }' "$narrowed" | sort | uniq -c | awk '{ printf "%s%d %s", (NR > 1 ? ", " : ""), $1, $2 }')"

# Crates each crate glob re-exports (`pub use s4_y::...::*;`): a name
# imported through crate c may be defined in any of them.
globs=$work/globs
for d in "$tree"/crates/*/; do
  c=$(basename "$d")
  { grep -rhoE '^[[:space:]]*pub use s4_[a-z0-9_]+::([A-Za-z0-9_]+::)*\*;' "$d/src" || :; } \
    | sed -E "s/^[[:space:]]*pub use s4_([a-z0-9_]+)::.*/$c \1/"
done | sort -u > "$globs"

export CARGO_TARGET_DIR=$work/target RUSTFLAGS='-A warnings'
round=0
while :; do
  round=$((round + 1))
  out=$work/out
  ok=1
  (cd "$tree" && cargo check -q --offline --keep-going --workspace --all-targets) > "$out" 2>&1 || ok=0
  (cd "$tree" && cargo check -q --offline --keep-going --locked \
    --manifest-path benchmark/Cargo.toml) >> "$out" 2>&1 || ok=0
  # "at file:line" for every location an E0603/E0624 error shows (paths
  # made relative to the tree: the benchmark's are absolute), and
  # "name crate item" for each name an E0364/E0365/E0432/E0446 error or
  # a "type is private" error names: the crate is the path's first
  # segment (`s4_x` is crates/x), or the crate of the failing line when
  # the path names none (`*`, any crate, for a type's relative path),
  # and then every crate that one glob re-exports.
  awk -v tree="$tree/" '
    function rel(p) { sub(/:[0-9]+$/, "", p)
                      if (index(p, tree) == 1) p = substr(p, length(tree) + 1)
                      return p }
    /^(error|warning)/ { at = ($0 ~ /^error\[E0(603|624)\]/); npath = 0; typ = 0
                         if ($0 ~ /^error\[E0(364|365|432|446)\]/ ||
                             (typ = ($0 ~ /^error: type `.*` is private$/)))
                           for (s = $0; match(s, /`[^`]*`/); s = substr(s, RSTART + RLENGTH)) {
                             p = substr(s, RSTART + 1, RLENGTH - 2); sub(/<.*/, "", p)
                             path[++npath] = p } }
    at && /^ *(-->|:::) / { print "at", rel($2) }
    npath && /^ *--> / { home = rel($2)
                         home = sub(/^crates\//, "", home) ? substr(home, 1, index(home, "/") - 1) : ""
                         for (i = 1; i <= npath; i++) {
                           n = split(path[i], seg, "::")
                           print "name", (n > 1 && seg[1] ~ /^s4_/) ? substr(seg[1], 4) \
                                         : (typ && n > 1) ? "*" : home, seg[n] }
                         npath = 0 }' "$out" |
    awk 'FILENAME == ARGV[1] { via[$1] = via[$1] " " $2; next }
         $1 != "name" { print; next }
         { q[nq = 1] = $2   # crates form a DAG, so this ends
           for (i = 1; i <= nq; i++) { print "name", q[i], $3
             n = split(via[q[i]], v, " ")
             for (j = 1; j <= n; j++) q[++nq] = v[j] } }' "$globs" - | sort -u > "$work/hits"
  kept=$work/kept
  : > "$kept"
  restored=0
  while read -r f line kind name; do
    c=${f#crates/}; c=${c%%/*}
    if grep -qxF -e "at $f:$line" -e "name $c $name" -e "name * $name" "$work/hits"; then
      sed -i "${line}s/^\([[:space:]]*\)pub(crate) /\1pub /" "$tree/$f"
      restored=$((restored + 1))
    else
      echo "$f $line $kind $name" >> "$kept"
    fi
  done < "$narrowed"
  mv "$kept" "$narrowed"
  echo "round $round: restored $restored"
  [ "$restored" -gt 0 ] && continue
  [ "$ok" = 1 ] && break
  cat "$out" >&2
  echo "pub census: cargo check fails for a reason other than a narrowed item" >&2
  exit 1
done

unused=$(while read -r f line kind name; do
  c=${f#crates/}; c=${c%%/*}
  is_allowed "$c" "$name" || echo "$f:$line: $kind $name"
done < "$narrowed")
# An allow-list line goes when no narrowed item matches it any more.
while read -r c pat why; do
  [ -n "$c" ] || continue
  awk -v c="crates/$c/" -v pat="$pat" '
    BEGIN { gsub(/\*/, ".*", pat); pat = "^" pat "$" }
    index($1, c) == 1 && $4 ~ pat { found = 1 } END { exit !found }' "$narrowed" \
    || unused="${unused:+$unused$'\n'}allow-list: $c has no pub $pat without an outside user; drop the entry"
done <<< "$allowed"
[ -z "$unused" ] || {
  echo "$unused" >&2
  echo "pub census: nothing outside its crate uses these; make each pub(crate)" \
    "(#[cfg(test)] if only unit tests use it, deleted if nothing does)," \
    "or allow-list it in scripts/pub_census.sh with the reason it stays pub" >&2
  exit 1
}
echo "pub census: OK after $round rounds"
