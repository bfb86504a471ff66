#!/usr/bin/env python3
"""Compare a fresh throughput run against the tracked baseline.

Usage:
    compare_bench.py BASELINE_JSON CURRENT_JSON [--tolerance FRAC]
                     [--allow-build-type-mismatch]
                     [--allow-simd-backend-mismatch]
                     [--summary-out FILE]

--summary-out writes the full verdict as JSON (per-rate ratios and
status, overall pass/fail) for machine consumers: CI publishes it as
an artifact and annotates the run from it instead of scraping stdout.

Both files must have been measured under the same
context.build_type, context.compiler and context.flags; a
Debug-vs-Release (or GCC-vs-Clang, or -O2-vs-O3) comparison is refused
unless explicitly overridden, since optimizer differences dwarf any
real regression.  The same rule applies to context.simd_backend: a
forced-scalar run (VCACHE_SIMD=scalar) against an AVX2 baseline would
read as a multi-x regression of the gang-probe benchmarks.

Both files are in the BENCH_sim.json format written by
bench_to_json.py.  The comparison walks the "summary" rates (elements
or points per second) present in *both* files and fails if any current
rate falls more than FRAC (default 0.05, i.e. 5%) below the baseline.
Speedups and new benchmarks never fail.

This is the observability PR's zero-cost gate: the simulators run with
the NullObserver here, so any slowdown beyond tolerance means the
instrumentation leaked into the uninstrumented hot path.
"""

import argparse
import json
import sys


def load_doc(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"compare_bench: cannot read {path}: {err}",
              file=sys.stderr)
        raise SystemExit(1)
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        print(f"compare_bench: {path} has no summary object",
              file=sys.stderr)
        raise SystemExit(1)
    return doc


BUILD_FIELDS = ("build_type", "compiler", "flags")


def check_build_types(base_doc: dict, curr_doc: dict,
                      base_path: str, curr_path: str,
                      allow_mismatch: bool) -> None:
    """Refuse comparisons across builds: a debug candidate against a
    release baseline reads as a catastrophic regression (and the other
    way round silently waves a real one through); another compiler or
    other flags shift rates the same way, only less visibly."""
    for field in BUILD_FIELDS:
        base_val = base_doc.get("context", {}).get(field)
        curr_val = curr_doc.get("context", {}).get(field)
        if base_val == curr_val:
            continue
        msg = (f"compare_bench: {field} mismatch: {base_path} is "
               f"{base_val!r} but {curr_path} is {curr_val!r} -- rates "
               f"are not comparable across builds")
        if allow_mismatch:
            print(msg + " (continuing: --allow-build-type-mismatch)",
                  file=sys.stderr)
            continue
        print(msg + " (pass --allow-build-type-mismatch to override)",
              file=sys.stderr)
        raise SystemExit(1)


def check_simd_backends(base_doc: dict, curr_doc: dict,
                        base_path: str, curr_path: str,
                        allow_mismatch: bool) -> None:
    """Refuse cross-backend comparisons: the gang-probe benchmarks run
    several times faster under AVX2 than under the portable-scalar
    kernels, so scalar-vs-avx2 rate deltas measure the dispatcher, not
    a regression.  Files from before the backend was recorded (no
    context.simd_backend) compare freely."""
    base_be = base_doc.get("context", {}).get("simd_backend")
    curr_be = curr_doc.get("context", {}).get("simd_backend")
    if base_be is None or curr_be is None or base_be == curr_be:
        return
    msg = (f"compare_bench: simd_backend mismatch: {base_path} was "
           f"measured under {base_be!r} but {curr_path} under "
           f"{curr_be!r} -- gang-probe rates are not comparable "
           f"across SIMD backends")
    if allow_mismatch:
        print(msg + " (continuing: --allow-simd-backend-mismatch)",
              file=sys.stderr)
        return
    print(msg + " (pass --allow-simd-backend-mismatch to override)",
          file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed fractional slowdown (default 0.05)",
    )
    parser.add_argument(
        "--allow-build-type-mismatch",
        action="store_true",
        help="warn instead of failing when the two files were "
             "measured under different context.build_type, "
             "context.compiler or context.flags values",
    )
    parser.add_argument(
        "--allow-simd-backend-mismatch",
        action="store_true",
        help="warn instead of failing when the two files were "
             "measured under different SIMD backends",
    )
    parser.add_argument(
        "--summary-out",
        metavar="FILE",
        help="write the comparison verdict as JSON here",
    )
    args = parser.parse_args()

    base_doc = load_doc(args.baseline)
    curr_doc = load_doc(args.current)
    check_build_types(base_doc, curr_doc, args.baseline, args.current,
                      args.allow_build_type_mismatch)
    check_simd_backends(base_doc, curr_doc, args.baseline,
                        args.current, args.allow_simd_backend_mismatch)
    base = base_doc["summary"]
    curr = curr_doc["summary"]

    compared = 0
    failures = []
    rates = {}
    for key in sorted(base):
        b, c = base.get(key), curr.get(key)
        if not isinstance(b, (int, float)) or not isinstance(
                c, (int, float)) or b <= 0:
            continue
        compared += 1
        ratio = c / b
        marker = "OK"
        if ratio < 1.0 - args.tolerance:
            marker = "REGRESSION"
            failures.append(key)
        rates[key] = {
            "baseline": b,
            "current": c,
            "ratio": ratio,
            "status": marker,
        }
        print(f"compare_bench: {key}: baseline {b:.4g} "
              f"current {c:.4g} ({ratio - 1.0:+.1%}) {marker}")

    passed = compared > 0 and not failures
    if args.summary_out:
        summary = {
            "baseline": args.baseline,
            "current": args.current,
            "tolerance": args.tolerance,
            "build_type":
                curr_doc.get("context", {}).get("build_type"),
            "compiler": curr_doc.get("context", {}).get("compiler"),
            "flags": curr_doc.get("context", {}).get("flags"),
            "simd_backend":
                curr_doc.get("context", {}).get("simd_backend"),
            "compared": compared,
            "regressed": failures,
            "passed": passed,
            "rates": rates,
        }
        try:
            with open(args.summary_out, "w",
                      encoding="utf-8") as out:
                json.dump(summary, out, indent=1, sort_keys=True)
                out.write("\n")
        except OSError as err:
            print(f"compare_bench: cannot write "
                  f"{args.summary_out}: {err}", file=sys.stderr)
            return 1

    if compared == 0:
        print("compare_bench: no comparable summary rates",
              file=sys.stderr)
        return 1
    if failures:
        print(f"compare_bench: {len(failures)}/{compared} rates "
              f"regressed beyond {args.tolerance:.0%}: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"compare_bench: {compared} rates within "
          f"{args.tolerance:.0%} of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
