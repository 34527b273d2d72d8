#!/usr/bin/env python3
"""Dead-code gate over a tree that tools/deadcode.sh built.

Usage: tools/deadcode.py OUT [--allow FILE]

OUT holds two builds with one section per function, linked with
--gc-sections: OUT/repo (this repository) and OUT/bench (the standalone
benchmark/ project). Each text symbol in namespace haccs that a src/
library defines is classed by the executables it survives in:

  test-only   only haccs_tests
  no-binary   none at all

and the rest are live. Compiler clones (.cold, .isra, .part, .constprop)
fold into the function they were split from, and symbols that demangle
alike (constructor and destructor variants) are one function, live if any
variant is.

The gate fails (exit 1) when a reported function is not in the allowlist,
or when an allowlist line names a function that is no longer reported.
Allowlist lines read `<demangled name>  # <reason>`; blank lines and lines
that start with `#` are comments. A malformed allowlist, or a tree it
cannot read, exits 2.
"""
import argparse
import os
import re
import subprocess
import sys

CLONE = re.compile(r"(\.(cold|isra|part|constprop|localalias)(\.\d+)?)+$")
OURS = re.compile(r"_ZNK?5haccs")  # functions in namespace haccs
TESTS = "haccs_tests"
KINDS = ("test-only", "no-binary")


def parse_nm(text):
    """Mangled names of the text symbols in `nm --defined-only` output."""
    names = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWi":
            names.add(CLONE.sub("", parts[2]))
    return names


def text_symbols(path):
    return parse_nm(subprocess.run(["nm", "--defined-only", path], check=True,
                                   capture_output=True, text=True).stdout)


def demangle(names):
    names = sorted(names)
    if not names:
        return {}
    plain = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                           capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, plain))


class AllowlistError(ValueError):
    pass


def parse_allowlist(text):
    """{demangled name: line number} from allowlist text."""
    allow = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        name = name.strip()
        if not reason.strip():
            raise AllowlistError(f"line {number}: no '# reason' after {name}")
        if name in allow:
            raise AllowlistError(f"line {number}: {name} is listed twice")
        allow[name] = number
    return allow


def classify(libraries, executables):
    """Per library, in name order: (function count, test-only names,
    no-binary names). `libraries` and `executables` map a name to the set
    of mangled symbols it defines; `executables` includes haccs_tests."""
    tests = executables.get(TESTS, set())
    shipped = set().union(*(syms for name, syms in executables.items()
                            if name != TESTS))
    report = {}
    for lib, defined in sorted(libraries.items()):
        pretty = demangle({s for s in defined if OURS.match(s)})
        live = {p for s, p in pretty.items() if s in shipped}
        tested = {p for s, p in pretty.items() if s in tests}
        functions = set(pretty.values())
        report[lib] = (len(functions), sorted(tested - live),
                       sorted(functions - live - tested))
    return report


def gate(report, allow, allow_name="tools/deadcode.allow"):
    """(report lines, failure lines) for a classify() report."""
    lines, failures, seen = [], [], set()
    totals = [0, 0, 0]
    for lib, (count, test_only, no_binary) in report.items():
        totals[0] += count
        totals[1] += len(test_only)
        totals[2] += len(no_binary)
        lines.append(f"== {lib}: {count} functions, {len(test_only)} "
                     f"test-only, {len(no_binary)} no-binary")
        for kind, names in zip(KINDS, (test_only, no_binary)):
            for name in names:
                allowed = name in allow
                seen.add(name)
                lines.append(f"  {kind:<9}  {name}"
                             + ("  [allowed]" if allowed else ""))
                if not allowed:
                    failures.append(f"{kind} {name} ({lib}) is not in "
                                    f"{allow_name}: delete it, or move its "
                                    "test onto a path a binary runs")
    for name, number in sorted(allow.items(), key=lambda item: item[1]):
        if name not in seen:
            failures.append(f"{allow_name}:{number}: {name} is no longer "
                            "reported: delete the line")
    lines.append(f"== total: {totals[0]} functions, {totals[1]} test-only, "
                 f"{totals[2]} no-binary, {len(allow)} allowed")
    return lines, failures


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or path.endswith(".so"):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def collect(out):
    """(libraries, executables) symbol sets from a deadcode.sh tree."""
    libraries = {}
    src = os.path.join(out, "repo", "src")
    for sub in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, sub)):
            continue
        for name in os.listdir(os.path.join(src, sub)):
            if name.startswith("libhaccs_") and name.endswith(".a"):
                libraries[name[3:-2]] = text_symbols(
                    os.path.join(src, sub, name))
    executables = {}
    for tree in ("repo", "bench"):
        for root, dirs, files in os.walk(os.path.join(out, tree)):
            # bench/haccs is the benchmark's copy of the repository build.
            dirs[:] = [d for d in dirs if d != "CMakeFiles" and
                       not (tree == "bench" and d == "haccs")]
            for name in files:
                path = os.path.join(root, name)
                if is_elf_executable(path):
                    executables[name] = text_symbols(path)
    if TESTS not in executables:
        raise FileNotFoundError(f"no {TESTS} under {out}/repo")
    return libraries, executables


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the tree tools/deadcode.sh built")
    parser.add_argument("--allow", default=os.path.join(here, "deadcode.allow"),
                        help="allowlist file (default: %(default)s)")
    args = parser.parse_args(argv)
    allow_name = os.path.relpath(args.allow, os.path.dirname(here))
    try:
        with open(args.allow) as f:
            allow = parse_allowlist(f.read())
    except (OSError, AllowlistError) as e:
        print(f"deadcode: {allow_name}: {e}", file=sys.stderr)
        return 2
    try:
        libraries, executables = collect(args.out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"deadcode: cannot read {args.out}: {e}", file=sys.stderr)
        return 2
    lines, failures = gate(classify(libraries, executables), allow,
                           allow_name)
    print("\n".join(lines))
    print(f"== over {len(executables) - 1} binaries besides {TESTS}")
    for failure in failures:
        print(f"deadcode: FAIL {failure}")
    if failures:
        print(f"deadcode: {len(failures)} failure(s)")
        return 1
    print("deadcode: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
