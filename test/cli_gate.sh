#!/usr/bin/env bash
# CLI contract gate: run one command and require the exit status the
# contract promises. OCaml also exits 2 on an uncaught exception, so
# the status alone cannot tell a diagnosed usage error from a crash:
# any "Fatal error: exception" on stderr fails the gate, and a status-2
# run must also leave stdout empty (errors and usage go to stderr).
#
#   bash cli_gate.sh STATUS CMD [ARG]...

set -u

want=${1:?usage: cli_gate.sh STATUS CMD [ARG]...}
shift
cmd="$*"
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

"$@" >"$out" 2>"$err"
got=$?

fail() {
  echo "cli_gate: $cmd: $1" >&2
  sed 's/^/  stderr: /' "$err" >&2
  exit 1
}

grep -q 'Fatal error: exception' "$err" && fail "uncaught exception"
[ "$got" -eq "$want" ] || fail "exited $got, want $want"
if [ "$want" -eq 2 ] && [ -s "$out" ]; then fail "usage error wrote to stdout"; fi
exit 0
