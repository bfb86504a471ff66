#!/usr/bin/env python3
"""Unit tests for scripts/bench_to_json.py.

Run directly or via ctest (registered in tests/CMakeLists.txt).  The
regression of record: a benchmark reporting real_time in a
non-nanosecond time_unit (e.g. ms) must be converted to ns, not stored
verbatim under the real_time_ns key.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "scripts", "bench_to_json.py")


def run_script(raw: dict, out_dir: str):
    raw_path = os.path.join(out_dir, "raw.json")
    out_path = os.path.join(out_dir, "out.json")
    with open(raw_path, "w", encoding="utf-8") as f:
        json.dump(raw, f)
    proc = subprocess.run(
        [sys.executable, SCRIPT, raw_path, out_path],
        capture_output=True, text=True)
    result = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as f:
            result = json.load(f)
    return proc, result


def bench(name, rate, real_time, unit=None, run_type=None):
    entry = {"name": name, "items_per_second": rate,
             "real_time": real_time}
    if unit is not None:
        entry["time_unit"] = unit
    if run_type is not None:
        entry["run_type"] = run_type
    return entry


class BenchToJsonTest(unittest.TestCase):
    def test_ms_time_unit_converts_to_ns(self):
        raw = {
            "context": {"date": "2026-01-01"},
            "benchmarks": [
                # The ms benchmark of record: 2.5 ms must land as
                # 2.5e6 ns, not 2.5 "ns".
                bench("BM_Slow", 1000.0, 2.5, unit="ms"),
                bench("BM_Fast", 2e6, 512.0, unit="ns"),
                bench("BM_Default", 3e6, 128.0),  # no unit => ns
                bench("BM_Micro", 4e6, 9.5, unit="us"),
                bench("BM_Whole", 10.0, 1.25, unit="s"),
            ],
        }
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        items = out["benchmarks"]
        self.assertEqual(items["BM_Slow"]["real_time_ns"], 2.5e6)
        self.assertEqual(items["BM_Fast"]["real_time_ns"], 512.0)
        self.assertEqual(items["BM_Default"]["real_time_ns"], 128.0)
        self.assertEqual(items["BM_Micro"]["real_time_ns"], 9500.0)
        self.assertEqual(items["BM_Whole"]["real_time_ns"], 1.25e9)

    def test_unknown_time_unit_fails(self):
        raw = {"benchmarks": [bench("BM_X", 1.0, 1.0, unit="fortnights")]}
        with tempfile.TemporaryDirectory() as d:
            proc, _ = run_script(raw, d)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("time_unit", proc.stderr)

    def test_aggregates_skipped_and_summary_keys_present(self):
        raw = {
            "benchmarks": [
                bench("BM_TimedCcSimulator/direct", 5e6, 1.0, unit="ms"),
                bench("BM_TimedCcSimulator/direct", 9e9, 1.0,
                      unit="ms", run_type="aggregate"),
                bench("BM_SampledMmSimulator/sampled", 8e8, 3.0),
                bench("BM_SampledMmSimulator/scalar", 1e8, 30.0),
            ],
        }
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = out["summary"]
        # The plain run wins over the aggregate row.
        self.assertEqual(summary["cc_direct_elements_per_s"], 5e6)
        self.assertEqual(summary["mm_sampled_elements_per_s"], 8e8)
        self.assertEqual(summary["mm_sampled_scalar_elements_per_s"],
                         1e8)

    def test_build_type_is_ours_not_the_librarys(self):
        raw = {
            "context": {"library_build_type": "debug",
                        "vcache_build_type": "Release",
                        "vcache_compiler": "GNU 12.2.0",
                        "vcache_cxx_flags": "-O3 -DNDEBUG -Wall",
                        "vcache_build": "vcache abc123 (Release, "
                                        "simd=avx2)"},
            "benchmarks": [bench("BM_FreshCcSimulator/prime", 7e7, 1.0),
                           bench("BM_FreshCcSimulator/direct", 6e7,
                                 1.0)],
        }
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(out["context"]["build_type"], "Release")
        self.assertEqual(out["context"]["compiler"], "GNU 12.2.0")
        self.assertEqual(out["context"]["flags"], "-O3 -DNDEBUG -Wall")
        self.assertIn("abc123", out["context"]["build"])
        self.assertEqual(out["summary"]["cc_fresh_prime_elements_per_s"],
                         7e7)
        self.assertEqual(
            out["summary"]["cc_fresh_direct_elements_per_s"], 6e7)

    def test_fresh_b8192_keys(self):
        raw = {"benchmarks": [
            bench("BM_FreshCcSimulator/direct_b8192", 5e7, 1.0),
            bench("BM_FreshCcSimulator/prime_b8192", 4e7, 1.0)]}
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = out["summary"]
        self.assertEqual(
            summary["cc_fresh_direct_b8192_elements_per_s"], 5e7)
        self.assertEqual(
            summary["cc_fresh_prime_b8192_elements_per_s"], 4e7)

    def test_fresh_b8192_scalar_keys(self):
        raw = {"benchmarks": [
            bench("BM_FreshCcSimulator/direct_b8192_scalar", 2e7, 1.0),
            bench("BM_FreshCcSimulator/prime_b8192_scalar", 3e7, 1.0)]}
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = out["summary"]
        self.assertEqual(
            summary["cc_fresh_direct_b8192_scalar_elements_per_s"], 2e7)
        self.assertEqual(
            summary["cc_fresh_prime_b8192_scalar_elements_per_s"], 3e7)

    def test_fft_keys(self):
        raw = {"benchmarks": [
            bench("BM_FftCcSimulator/direct_auto", 6e7, 1.0),
            bench("BM_FftCcSimulator/direct_scalar", 5e7, 1.0),
            bench("BM_FftCcSimulator/prime_auto", 4e7, 1.0),
            bench("BM_FftCcSimulator/prime_scalar", 3e7, 1.0)]}
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = out["summary"]
        self.assertEqual(summary["cc_fft_direct_elements_per_s"], 6e7)
        self.assertEqual(summary["cc_fft_direct_scalar_elements_per_s"],
                         5e7)
        self.assertEqual(summary["cc_fft_prime_elements_per_s"], 4e7)
        self.assertEqual(summary["cc_fft_prime_scalar_elements_per_s"],
                         3e7)

    def test_double_stream_mm_key(self):
        raw = {"benchmarks": [
            bench("BM_DoubleStreamMmSimulator", 2e8, 1.0)]}
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(out["summary"]["mm_double_stream_elements_per_s"],
                         2e8)

    def test_missing_build_type_is_null_with_warning(self):
        raw = {"context": {"library_build_type": "debug"},
               "benchmarks": [bench("BM_X", 1.0, 1.0)]}
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIsNone(out["context"]["build_type"])
        self.assertIsNone(out["context"]["compiler"])
        self.assertIsNone(out["context"]["flags"])
        self.assertIn("vcache_build_type", proc.stderr)
        self.assertIn("vcache_compiler", proc.stderr)
        self.assertIn("vcache_cxx_flags", proc.stderr)

    def test_first_touch_set_keys(self):
        raw = {"benchmarks": [bench("BM_FirstTouchSet/1", 4e8, 1.0),
                              bench("BM_FirstTouchSet/8191", 3e8, 1.0),
                              bench("BM_FirstTouchSet/8192", 2e8,
                                    1.0)]}
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = out["summary"]
        self.assertEqual(summary["first_touch_set_s1_inserts_per_s"], 4e8)
        self.assertEqual(
            summary["first_touch_set_s8191_inserts_per_s"], 3e8)
        self.assertEqual(
            summary["first_touch_set_s8192_inserts_per_s"], 2e8)

    def test_gang_probe_keys(self):
        raw = {"benchmarks": [
            bench("BM_GangProbeCcSimulator/auto", 3e8, 1.0),
            bench("BM_GangProbeCcSimulator/scalar", 1e8, 1.0)]}
        with tempfile.TemporaryDirectory() as d:
            proc, out = run_script(raw, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = out["summary"]
        self.assertEqual(summary["cc_gang_elements_per_s"], 3e8)
        self.assertEqual(summary["cc_gang_scalar_elements_per_s"], 1e8)


if __name__ == "__main__":
    unittest.main()
