#!/bin/sh
# Print the library's optional-parameter surface: one "Module.value
# ?param" line for every optional parameter that a `val` in
# lib/**/*.mli declares, sorted.  CI diffs the output against
# test/optional_args.expected, so adding or dropping a knob is a visible
# change.
#
#   sh test/optional_args.sh > optional-args.txt    (run from the repository root)
set -eu
for mli in $(find lib -name '*.mli' | LC_ALL=C sort); do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  # drop (nested) comments, then attribute each ?param: to the val it sits in
  awk -v mod="$mod" '{
    out = ""; i = 1; n = length($0)
    while (i <= n) {
      two = substr($0, i, 2)
      if (two == "(*") { depth++; i += 2; continue }
      if (two == "*)" && depth > 0) { depth--; i += 2; continue }
      if (depth == 0) out = out substr($0, i, 1)
      i++
    }
    if (match(out, /^ *val [a-z_][A-Za-z0-9_'"'"']*/)) {
      name = substr(out, RSTART, RLENGTH); sub(/^ *val /, "", name)
    } else if (out ~ /^ *(type|module|exception|external|include|end)( |$)/) name = ""
    while (name != "" && match(out, /\?[a-z_][A-Za-z0-9_]*:/)) {
      print mod "." name " " substr(out, RSTART, RLENGTH - 1)
      out = substr(out, RSTART + RLENGTH)
    }
  }' "$mli"
done | LC_ALL=C sort
