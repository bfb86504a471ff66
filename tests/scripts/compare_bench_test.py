#!/usr/bin/env python3
"""Tests for compare_bench.py, in particular the --summary-out JSON
that CI consumes instead of scraping stdout."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..",
    "..",
    "scripts",
    "compare_bench.py",
)


def doc(rates, build_type="Release", backend="avx2",
        compiler="GNU 12.2.0", flags="-O3 -DNDEBUG -Wall -Wextra"):
    return {
        "context": {
            "build_type": build_type,
            "compiler": compiler,
            "flags": flags,
            "simd_backend": backend,
        },
        "summary": rates,
    }


class CompareBenchTest(unittest.TestCase):
    def run_compare(self, baseline, current, extra=None):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            curr_path = os.path.join(tmp, "curr.json")
            summary_path = os.path.join(tmp, "summary.json")
            with open(base_path, "w") as f:
                json.dump(baseline, f)
            with open(curr_path, "w") as f:
                json.dump(current, f)
            result = subprocess.run(
                [
                    sys.executable,
                    SCRIPT,
                    base_path,
                    curr_path,
                    "--summary-out",
                    summary_path,
                ]
                + (extra or []),
                capture_output=True,
                text=True,
            )
            summary = None
            if os.path.exists(summary_path):
                with open(summary_path) as f:
                    summary = json.load(f)
            return result, summary

    def test_pass_writes_passing_summary(self):
        result, summary = self.run_compare(
            doc({"mm": 100.0, "cc": 50.0}),
            doc({"mm": 101.0, "cc": 50.0}),
        )
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertTrue(summary["passed"])
        self.assertEqual(summary["compared"], 2)
        self.assertEqual(summary["regressed"], [])
        self.assertEqual(summary["rates"]["mm"]["status"], "OK")
        self.assertAlmostEqual(
            summary["rates"]["mm"]["ratio"], 1.01
        )
        self.assertEqual(summary["build_type"], "Release")
        self.assertEqual(summary["compiler"], "GNU 12.2.0")
        self.assertEqual(summary["flags"], "-O3 -DNDEBUG -Wall -Wextra")

    def test_regression_fails_and_is_named_in_summary(self):
        result, summary = self.run_compare(
            doc({"mm": 100.0, "cc": 50.0}),
            doc({"mm": 80.0, "cc": 50.0}),
        )
        self.assertEqual(result.returncode, 1)
        self.assertFalse(summary["passed"])
        self.assertEqual(summary["regressed"], ["mm"])
        self.assertEqual(
            summary["rates"]["mm"]["status"], "REGRESSION"
        )
        # The passing rate is still reported for dashboards.
        self.assertEqual(summary["rates"]["cc"]["status"], "OK")

    def test_tolerance_is_respected(self):
        result, summary = self.run_compare(
            doc({"mm": 100.0}),
            doc({"mm": 80.0}),
            extra=["--tolerance", "0.25"],
        )
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertTrue(summary["passed"])
        self.assertAlmostEqual(summary["tolerance"], 0.25)

    def test_no_shared_rates_is_a_failing_summary(self):
        result, summary = self.run_compare(
            doc({"mm": 100.0}), doc({"other": 50.0})
        )
        self.assertEqual(result.returncode, 1)
        self.assertFalse(summary["passed"])
        self.assertEqual(summary["compared"], 0)

    def test_build_type_mismatch_refused_before_summary(self):
        result, summary = self.run_compare(
            doc({"mm": 100.0}, build_type="Release"),
            doc({"mm": 100.0}, build_type="Debug"),
        )
        self.assertEqual(result.returncode, 1)
        self.assertIn("build_type mismatch", result.stderr)
        # Refused comparisons produce no summary at all: a stale
        # artifact must not look like a verdict.
        self.assertIsNone(summary)

    def test_compiler_and_flags_mismatch_refused(self):
        for field, other in (("compiler", "Clang 17.0.6"),
                             ("flags", "-O2 -g -DNDEBUG -Wall -Wextra")):
            result, summary = self.run_compare(
                doc({"mm": 100.0}),
                doc({"mm": 100.0}, **{field: other}),
            )
            self.assertEqual(result.returncode, 1, field)
            self.assertIn(f"{field} mismatch", result.stderr)
            self.assertIsNone(summary)

    def test_unstamped_compiler_refused_against_stamped(self):
        result, _ = self.run_compare(
            doc({"mm": 100.0}), doc({"mm": 100.0}, compiler=None))
        self.assertEqual(result.returncode, 1)
        self.assertIn("compiler mismatch", result.stderr)

    def test_build_mismatch_override_warns_and_compares(self):
        result, summary = self.run_compare(
            doc({"mm": 100.0}),
            doc({"mm": 100.0}, compiler="Clang 17.0.6",
                flags="-O2"),
            extra=["--allow-build-type-mismatch"],
        )
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("compiler mismatch", result.stderr)
        self.assertIn("flags mismatch", result.stderr)
        self.assertTrue(summary["passed"])


if __name__ == "__main__":
    unittest.main()
