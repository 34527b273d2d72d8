#!/usr/bin/env python3
"""Fixture tests for tools/deadcode.py over canned `nm` symbol sets: a
planted function fails the gate unless allowlisted, a stale allowlist line
fails, compiler clones fold into their function, and constructor and
destructor variants count once.

Run: python3 tools/deadcode_test.py
"""
import contextlib
import io
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.dont_write_bytecode = True  # keep the source tree clean under ctest
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import deadcode  # noqa: E402

LIVE = "_ZN5haccs4core8Selector6selectEm"
LIVE_NAME = "haccs::core::Selector::select(unsigned long)"
PLANTED = "_ZN5haccs4core7plantedEv"
PLANTED_NAME = "haccs::core::planted()"
CTORS = ["_ZN5haccs3net5ProbeC1Ev", "_ZN5haccs3net5ProbeC2Ev"]
DTORS = ["_ZN5haccs3net5ProbeD0Ev", "_ZN5haccs3net5ProbeD1Ev",
         "_ZN5haccs3net5ProbeD2Ev"]


def nm(*symbols, kind="T"):
    """`nm --defined-only` output defining each symbol."""
    return "".join(f"0000000000001000 {kind} {s}\n" for s in symbols)


def tree(library, shipped, tests):
    """classify() inputs: one library and two binaries, from nm text."""
    return ({"haccs_core": deadcode.parse_nm(library)},
            {"haccs_run": deadcode.parse_nm(shipped),
             deadcode.TESTS: deadcode.parse_nm(tests)})


def run_gate(library, shipped, tests, allow_text=""):
    report = deadcode.classify(*tree(library, shipped, tests))
    return deadcode.gate(report, deadcode.parse_allowlist(allow_text))


class DeadcodeTest(unittest.TestCase):
    def test_live_function_passes(self):
        lines, failures = run_gate(nm(LIVE), nm(LIVE, "main"), nm(LIVE))
        self.assertEqual(failures, [])
        self.assertIn("== haccs_core: 1 functions, 0 test-only, 0 no-binary",
                      lines)

    def test_planted_test_only_function_fails(self):
        lines, failures = run_gate(nm(LIVE, PLANTED), nm(LIVE),
                                   nm(LIVE, PLANTED))
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith(
            f"test-only {PLANTED_NAME} (haccs_core) is not in"))
        self.assertIn(f"  test-only  {PLANTED_NAME}", lines)

    def test_planted_no_binary_function_fails(self):
        _, failures = run_gate(nm(LIVE, PLANTED), nm(LIVE), nm(LIVE))
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith(f"no-binary {PLANTED_NAME}"))

    def test_allowlisted_function_passes(self):
        allow = f"# hooks\n\n{PLANTED_NAME}  # test hook\n"
        lines, failures = run_gate(nm(LIVE, PLANTED), nm(LIVE),
                                   nm(LIVE, PLANTED), allow)
        self.assertEqual(failures, [])
        self.assertIn(f"  test-only  {PLANTED_NAME}  [allowed]", lines)

    def test_stale_allowlist_line_fails(self):
        allow = f"# hooks\n{PLANTED_NAME}  # test hook\n"
        _, failures = run_gate(nm(LIVE, PLANTED), nm(LIVE, PLANTED),
                               nm(PLANTED), allow)
        self.assertEqual(failures, [
            f"tools/deadcode.allow:2: {PLANTED_NAME} is no longer reported: "
            "delete the line"])

    def test_allowlist_lines_need_a_reason_and_no_repeats(self):
        with self.assertRaises(deadcode.AllowlistError):
            deadcode.parse_allowlist(f"{PLANTED_NAME}\n")
        with self.assertRaises(deadcode.AllowlistError):
            deadcode.parse_allowlist(f"{PLANTED_NAME}  # a\n"
                                     f"{PLANTED_NAME}  # b\n")

    def test_clones_fold_into_their_function(self):
        clones = nm(f"{LIVE}.cold", f"{LIVE}.isra.0",
                    f"{LIVE}.constprop.0.isra.0", f"{LIVE}.part.1", kind="t")
        self.assertEqual(deadcode.parse_nm(nm(LIVE) + clones), {LIVE})
        # A binary that kept only a clone still reaches the function.
        lines, failures = run_gate(nm(LIVE) + clones,
                                   nm(f"{LIVE}.constprop.0", kind="t"),
                                   nm(LIVE))
        self.assertEqual(failures, [])
        self.assertIn("== haccs_core: 1 functions, 0 test-only, 0 no-binary",
                      lines)

    def test_constructor_and_destructor_variants_count_once(self):
        report = deadcode.classify(*tree(nm(*CTORS, *DTORS), nm(LIVE),
                                         nm(*CTORS, *DTORS)))
        self.assertEqual(report["haccs_core"], (
            2, ["haccs::net::Probe::Probe()", "haccs::net::Probe::~Probe()"],
            []))
        # One variant in a binary makes the function live.
        report = deadcode.classify(*tree(nm(*CTORS, *DTORS),
                                         nm(CTORS[0], DTORS[1]),
                                         nm(CTORS[1], DTORS[2])))
        self.assertEqual(report["haccs_core"], (2, [], []))

    def test_symbols_outside_namespace_haccs_are_ignored(self):
        outside = "_ZNSt6vectorIiSaIiEE9push_backEOi"
        report = deadcode.classify(*tree(nm(LIVE, outside, "main"),
                                         nm(LIVE), nm(outside)))
        self.assertEqual(report["haccs_core"], (1, [], []))

    def test_main_exit_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            allow = os.path.join(tmp, "deadcode.allow")
            sets = tree(nm(LIVE, PLANTED), nm(LIVE), nm(LIVE, PLANTED))
            for text, code in (("", 1), (f"{PLANTED_NAME}  # hook\n", 0),
                               (f"{PLANTED_NAME}\n", 2)):
                with open(allow, "w") as f:
                    f.write(text)
                out = io.StringIO()
                with mock.patch.object(deadcode, "collect",
                                       return_value=sets), \
                        contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    got = deadcode.main([tmp, "--allow", allow])
                self.assertEqual(got, code, text)
                if code == 1:
                    self.assertIn(f"deadcode: FAIL test-only {PLANTED_NAME}",
                                  out.getvalue())


if __name__ == "__main__":
    unittest.main()
