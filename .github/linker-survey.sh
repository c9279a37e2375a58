#!/usr/bin/env bash
# Linker survey: list the functions declared in non-test files under
# internal/ that no command, example or the benchmark links.
#
#   bash .github/linker-survey.sh        # unlinked and not allowed; exit 1 if any
#   bash .github/linker-survey.sh -a     # every unlinked function, with its reason
#
# Each output line is symbol<TAB>file:line (and <TAB>reason under -a).
# Inlining is off (-gcflags=all=-l) so every called function stays a symbol
# of its own; a generic function's instantiations ([...] and
# [go.shape.…] suffixes, nested brackets included) count as the function.
# Run from the repository root; it builds into a temporary directory.
set -euo pipefail
all=0
[ "${1:-}" = "-a" ] && all=1
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir -p "$out/bin"
for d in cmd/* examples/*; do
  go build -gcflags=all=-l -o "$out/bin/$(basename "$d")" "./$d"
done
(cd benchmark && go build -gcflags=all=-l -o "$out/bin/benchmark" .)

# Linked: nm's text symbols under repro/internal/, instantiation brackets
# removed. A symbol may hold spaces (go.shape.struct { … }), so the name is
# the rest of the line after the type column.
for b in "$out"/bin/*; do go tool nm "$b"; done | awk '
  $2 == "T" || $2 == "t" {
    s = $0; sub(/^ *[0-9a-f]* +[Tt] +/, "", s)
    if (s !~ /^repro\/internal\//) next
    r = ""; depth = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "[") depth++
      else if (c == "]") depth--
      else if (depth == 0) r = r c
    }
    print r
  }' | sort -u > "$out/linked.txt"

# Declared: every top-level func and method, spelled as nm spells it. The
# files come from git: outside a work tree, or with none listed, the survey
# would pass over nothing, so it fails instead.
files=$(git ls-files 'internal/*.go' | grep -v '_test.go$') || {
  echo "linker survey: git ls-files lists no non-test file under internal/" >&2
  exit 1
}
for f in $files; do
  awk -v pkg="repro/$(dirname "$f")" -v file="$f" '/^func / {
    l = $0; sub(/^func /, "", l)
    if (l ~ /^\(/) {
      r = l; sub(/\).*/, "", r); n = split(r, p, " "); t = p[n]; sub(/\[.*/, "", t)
      m = l; sub(/^\([^)]*\) */, "", m); sub(/[\[(].*/, "", m)
      if (t ~ /^\*/) { sub(/^\*/, "", t); s = pkg ".(*" t ")." m } else s = pkg "." t "." m
    } else { m = l; sub(/[\[(].*/, "", m); s = pkg "." m }
    print s "\t" file ":" NR }' "$f"
done | sort > "$out/declared.txt"

# Allowed: symbols (ERE, anchored) that stay unlinked on purpose, each with
# its reason.
cat > "$out/allow.txt" <<'ALLOW'
repro/internal/fixture\..*	test support: fixtures the tests of many packages build
repro/internal/bitset\.\(\*Set\)\.Slice	test support: tests read a set as a slice
repro/internal/rpq\.MustParse	test support: tests parse fixed expressions
repro/internal/match\.(Reference|refPositive|allIsomorphisms)	oracle: the brute-force matcher QMatch is held against, and its helpers
repro/internal/partition\.\(\*Partition\)\.Validate	oracle: tests check a partition's invariants
repro/internal/graph\.\(\*Graph\)\.(CheckIndex|Labels)	oracle: tests check the graph's index against its rows
repro/internal/rpq\.\(\*nfa\)\.matchWord	oracle: tests check the automaton against a word
repro/internal/transform\..*	the Lemma 4 construction (ratio to numeric quantifiers)
repro/internal/core\.(\(\*Pattern\)\.(IsPositive|QuantifiedEdges)|Quantifier\.BasisPoints)	the Lemma 4 construction: only transform calls it
repro/internal/cluster\.\(\*Coordinator\)\.Watches	invariant check: the model harness compares it with the model
ALLOW

awk -F'\t' 'NR == FNR { l[$1] = 1; next } !($1 in l) && $1 !~ /\.init$/' \
  "$out/linked.txt" "$out/declared.txt" > "$out/unlinked.txt"
declared=$(wc -l < "$out/declared.txt")
if [ "$declared" -eq 0 ]; then
  echo "linker survey: no declared function found under internal/" >&2
  exit 1
fi
unlinked=$(wc -l < "$out/unlinked.txt")
awk -F'\t' -v all=$all '
  NR == FNR { re[NR] = "^" $1 "$"; why[NR] = $2; n = NR; next }
  {
    r = ""
    for (i = 1; i <= n; i++) if ($1 ~ re[i]) { r = why[i]; break }
    if (r == "") { bad++; print $1 "\t" $2 }
    else if (all) print $1 "\t" $2 "\t" r
  }
  END { exit bad > 0 }' "$out/allow.txt" "$out/unlinked.txt" && ok=1 || ok=0
echo "$unlinked of $declared declared functions are linked by no command, example or the benchmark" >&2
[ $ok = 1 ]
