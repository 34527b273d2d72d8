#!/usr/bin/env bash
# Dead-code report: which functions of the src/ libraries does no shipped
# binary link?
#
# Usage: tools/deadcode.sh [build-dir]      (default: build-deadcode/)
#
# Builds the repository and the standalone benchmark/ project (so that
# haccs_bench counts as a binary; nothing under benchmark/ is edited) in
# Release with one section per function (-ffunction-sections
# -fdata-sections) and links every executable with -Wl,--gc-sections, so an
# executable keeps only the library code it can reach. Each text symbol in
# the haccs namespace defined by a src/ library is then classed by the
# executables it survives in:
#
#   test-only   only haccs_tests
#   no-binary   none at all
#
# and the rest are live. Compiler clones (.cold, .isra, .part, .constprop)
# fold into the function they were split from. The report prints the
# test-only and no-binary functions per library, then the totals.
#
# This is a report, not a gate. Inlining hides callers: a function inlined
# into every caller of a binary leaves no symbol there, so confirm each
# entry with grep before deleting it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$repo/build-deadcode}"
jobs="$(nproc 2>/dev/null || echo 4)"
flags=(-DCMAKE_BUILD_TYPE=Release
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
  exit 1
fi

python3 - "$out" <<'EOF'
import os
import re
import subprocess
import sys

out = sys.argv[1]
CLONE = re.compile(r"(\.(cold|isra|part|constprop|localalias)(\.\d+)?)+$")
OURS = re.compile(r"_ZNK?5haccs")  # functions in namespace haccs


def text_symbols(path):
    """Mangled names of the text symbols defined in an object or archive."""
    lines = subprocess.run(["nm", "--defined-only", path], check=True,
                           capture_output=True, text=True).stdout
    names = set()
    for line in lines.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWi":
            names.add(CLONE.sub("", parts[2]))
    return names


def demangle(names):
    names = sorted(names)
    if not names:
        return {}
    plain = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                           capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, plain))


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or path.endswith(".so"):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


libraries = {}
src = os.path.join(out, "repo", "src")
for sub in sorted(os.listdir(src)):
    if not os.path.isdir(os.path.join(src, sub)):
        continue
    for name in os.listdir(os.path.join(src, sub)):
        if name.startswith("libhaccs_") and name.endswith(".a"):
            libraries[name[3:-2]] = text_symbols(os.path.join(src, sub, name))

executables = {}
for tree in ("repo", "bench"):
    for root, dirs, files in os.walk(os.path.join(out, tree)):
        dirs[:] = [d for d in dirs if d != "CMakeFiles" and
                   not (tree == "bench" and d == "haccs")]
        for name in files:
            path = os.path.join(root, name)
            if is_elf_executable(path):
                executables[name] = text_symbols(path)

tests = executables.pop("haccs_tests")
shipped = set().union(*executables.values())
totals = {"symbols": 0, "test-only": 0, "no-binary": 0}
for lib, defined in sorted(libraries.items()):
    ours = {s for s in defined if OURS.match(s)}
    pretty = demangle(ours)
    # Constructor and destructor variants (C1/C2, D0/D1/D2) print alike and
    # count once.
    test_only = sorted({pretty[s] for s in ours - shipped if s in tests})
    no_binary = sorted({pretty[s] for s in ours - shipped - tests})
    ours = set(pretty.values())
    totals["symbols"] += len(ours)
    totals["test-only"] += len(test_only)
    totals["no-binary"] += len(no_binary)
    print(f"== {lib}: {len(ours)} functions, {len(test_only)} test-only, "
          f"{len(no_binary)} no-binary")
    for kind, names in (("test-only", test_only), ("no-binary", no_binary)):
        for n in names:
            print(f"  {kind:<9}  {n}")
print(f"== total over {len(executables)} binaries besides haccs_tests: "
      f"{totals['symbols']} functions, {totals['test-only']} test-only, "
      f"{totals['no-binary']} no-binary")
EOF
