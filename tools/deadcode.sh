#!/usr/bin/env bash
# Dead-code gate: fails when a function of the src/ libraries is reached by
# no shipped binary (only by haccs_tests, or by nothing) and is not listed in
# tools/deadcode.allow, or when an allowlist line is no longer reported.
#
# Usage: tools/deadcode.sh [build-dir]      (default: build-deadcode/)
#
# Builds the repository and the standalone benchmark/ project (so that
# haccs_bench counts as a binary; nothing under benchmark/ is edited) with
# one section per function (-ffunction-sections -fdata-sections) and links
# every executable with -Wl,--gc-sections, so an executable keeps only the
# library code it can reach. The build is at -O0: an inlined call leaves no
# symbol behind, so at -O2/-O3 a function inlined into every caller would
# read as dead. tools/deadcode.py then classes the symbols and applies the
# allowlist; see TESTING.md "Dead-code gate".
#
# Exit status: 0 clean, 1 dead code or a stale allowlist line, 2 the build
# failed or the allowlist is malformed.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$repo/build-deadcode}"
jobs="$(nproc 2>/dev/null || echo 4)"
flags=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG"
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

mkdir -p "$out"
log="$out/build.log"
if ! { cmake -S "$repo" -B "$out/repo" "${flags[@]}" &&
       cmake --build "$out/repo" -j"$jobs" &&
       cmake -S "$repo/benchmark" -B "$out/bench" "${flags[@]}" &&
       cmake --build "$out/bench" --target haccs_bench -j"$jobs"; } \
     > "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "deadcode: build failed (full log: $log)" >&2
  exit 2
fi

exec python3 "$repo/tools/deadcode.py" "$out"
