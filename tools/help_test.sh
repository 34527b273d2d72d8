#!/usr/bin/env bash
# `<binary> --help` prints its usage and exits 0: the first line of standard
# output names the binary ("<binary> — ..."), and nothing goes to standard
# error, so the flag is never mistaken for an unknown one.
#
# Usage: tools/help_test.sh <path-to-binary>
set -uo pipefail

run="$1"
name="$(basename "$run")"
err_file="$(mktemp)"
trap 'rm -f "$err_file"' EXIT

out="$(timeout 60 "$run" --help 2>"$err_file")"
rc=$?
err="$(cat "$err_file")"
if [[ "$rc" -ne 0 ]]; then
  echo "FAIL: $name --help exited $rc: $err"
  exit 1
fi
if [[ -n "$err" ]]; then
  echo "FAIL: $name --help wrote to stderr: $err"
  exit 1
fi
if [[ "$(head -n 1 <<<"$out")" != "$name — "* ]]; then
  echo "FAIL: $name --help printed '$(head -n 1 <<<"$out")' first (want '$name — ...')"
  exit 1
fi
echo "ok: $name --help -> $(head -n 1 <<<"$out")"
