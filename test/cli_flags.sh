#!/bin/sh
# Print the CLI flag surface: one "SUBCOMMAND OPTION" line per option
# name that `rdna SUBCOMMAND --help=plain` documents, sorted.  CI diffs
# the output against test/cli_flags.expected, so adding, dropping or
# renaming a flag is a visible change.
#
#   sh test/cli_flags.sh _build/default/bin/rdna.exe > cli-flags.txt
set -eu
rdna="$1"
cmds=$("$rdna" --help=plain | awk '/^COMMANDS/{f=1; next} /^[A-Z]/{f=0} f && /^       [a-z]/{print $1}')
test -n "$cmds"
for c in $cmds; do
  "$rdna" "$c" --help=plain \
    | grep -E '^       -' \
    | grep -oE '(^|[ ,])--?[a-zA-Z][a-zA-Z0-9-]*' \
    | tr -d ' ,' \
    | sed "s/^/$c /"
done | LC_ALL=C sort -u
