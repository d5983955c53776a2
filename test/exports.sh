#!/bin/sh
# Print the library exports that only tests use: one "Module.value" line
# for every `val` declared in lib/**/*.mli that no .ml file outside test/
# names, other than the module's own implementation.  A value counts as
# named when it appears outside comments qualified (`Prefix.compare`,
# also through a library path such as `Rd_addr.Prefix.compare`), through
# a `module X = ...Prefix` alias (`X.compare`), or bare in a file that
# opens the module (`open`, `let open`, `Prefix.( ... )`).  CI diffs the
# output against test/test_only_exports.expected, so an export that loses
# its last caller outside the tests is a visible change.
#
#   sh test/exports.sh > exports.txt    (run from the repository root)
set -eu
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# a copy of every non-test implementation with its (nested) comments removed
for f in $(find lib bin bench examples rdbench -name '*.ml' -not -path '*/_build/*'); do
  mkdir -p "$tmp/$(dirname "$f")"
  awk '{
    out = ""; i = 1; n = length($0)
    while (i <= n) {
      two = substr($0, i, 2)
      if (two == "(*") { depth++; i += 2; continue }
      if (two == "*)" && depth > 0) { depth--; i += 2; continue }
      if (depth == 0) out = out substr($0, i, 1)
      i++
    }
    print out
  }' "$f" > "$tmp/$f"
done
cd "$tmp"
corpus=$(find . -name '*.ml' | sed 's|^\./||' | LC_ALL=C sort)
for mli in $(cd "$root" && find lib -name '*.mli' | LC_ALL=C sort); do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  files=$(printf '%s\n' $corpus | grep -vxF "${mli%.mli}.ml")
  # every name the module goes by: itself and its aliases
  names=$(printf '%s\n' "$mod"; cat $files \
    | sed -nE "s/^ *module ([A-Z][A-Za-z0-9_]*) = ([A-Z][A-Za-z0-9_]*\.)*$mod *$/\1/p")
  names=$(printf '%s\n' $names | LC_ALL=C sort -u | paste -sd'|' -)
  # whole files under `open M` / `let open M in`, and the text of each `M.( ... )`
  opened=$(grep -lE "open ([A-Z][A-Za-z0-9_]*\.)*$mod( |$)" $files || true)
  grep -ohE "(^|[^A-Za-z0-9_.])([A-Z][A-Za-z0-9_]*\.)*$mod\.\([^)]*" $files > "$tmp/local" || true
  for v in $(sed -nE "s/^ *val ([a-z_][A-Za-z0-9_']*).*/\1/p" "$root/$mli"); do
    if grep -qE "(^|[^A-Za-z0-9_'])($names)\.$v([^A-Za-z0-9_']|$)" $files; then continue; fi
    if grep -qE "(^|[^A-Za-z0-9_'.])$v([^A-Za-z0-9_']|$)" $opened "$tmp/local"; then continue; fi
    echo "$mod.$v"
  done
done
