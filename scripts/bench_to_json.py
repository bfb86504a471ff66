#!/usr/bin/env python3
"""Convert Google-Benchmark JSON into the repo's tracked BENCH_sim.json.

Usage:
    bench_to_json.py RAW_JSON [OUT_JSON]

RAW_JSON is the file written by
`micro_sim_throughput --benchmark_out=... --benchmark_out_format=json`.
OUT_JSON defaults to BENCH_sim.json in the current directory.

The output keeps only what the throughput baseline tracks: items/s for
each simulator benchmark (elements simulated per second) and the sweep
engine's grid points per second, plus enough context (host, build, date)
to interpret a regression.  Raw nanosecond timings and repetition noise
stay in the raw file; this one is meant to be diffed.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"bench_to_json: {msg}", file=sys.stderr)
    raise SystemExit(1)


# Google Benchmark reports real_time in the benchmark's own time_unit
# (ns unless the benchmark calls ->Unit(...)); the tracked baseline
# stores nanoseconds, so convert before labeling the value _ns.
_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(bench: dict) -> float:
    unit = bench.get("time_unit", "ns")
    scale = _UNIT_TO_NS.get(unit)
    if scale is None:
        fail(f"benchmark {bench.get('name')!r} has unknown "
             f"time_unit {unit!r}")
    return bench.get("real_time", 0.0) * scale


def main(argv: list[str]) -> None:
    if len(argv) < 2 or len(argv) > 3:
        fail(f"usage: {argv[0]} RAW_JSON [OUT_JSON]")
    raw_path = argv[1]
    out_path = argv[2] if len(argv) == 3 else "BENCH_sim.json"

    try:
        with open(raw_path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {raw_path}: {err}")

    context = raw.get("context", {})
    # micro_sim_throughput records our CMake build type, compiler and
    # effective flags as custom context; library_build_type is Google
    # Benchmark's own build and says nothing about the code being
    # measured.  A file without one of them stores null, which
    # compare_bench.py's guard refuses to compare against a baseline
    # that has the field.
    stamped = {}
    for field, key in (("build_type", "vcache_build_type"),
                       ("compiler", "vcache_compiler"),
                       ("flags", "vcache_cxx_flags")):
        stamped[field] = context.get(key)
        if stamped[field] is None:
            print(f"bench_to_json: warning: {raw_path} has no "
                  f"context.{key}; {field} stored as null",
                  file=sys.stderr)
    benchmarks = raw.get("benchmarks", [])
    if not benchmarks:
        fail(f"{raw_path} has no 'benchmarks' array")

    items = {}
    simd_backend = None
    for bench in benchmarks:
        # Aggregate rows (mean/median/stddev) would shadow the plain
        # run; the baseline records the plain per-benchmark rate.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        rate = bench.get("items_per_second")
        if name is None or rate is None:
            continue
        items[name] = {
            "items_per_second": round(rate, 1),
            "real_time_ns": round(real_time_ns(bench), 1),
        }
        # SIMD-dispatching benchmarks label themselves "simd=<backend>";
        # keep it per-benchmark and hoist it into the context so
        # compare_bench.py can refuse cross-backend comparisons.
        label = bench.get("label", "")
        if label.startswith("simd="):
            backend = label[len("simd="):]
            items[name]["simd_backend"] = backend
            if simd_backend is None:
                simd_backend = backend
            elif simd_backend != backend:
                fail(f"benchmarks disagree on the SIMD backend "
                     f"({simd_backend!r} vs {backend!r}); rerun with "
                     f"a single VCACHE_SIMD setting")

    if not items:
        fail(f"no benchmark in {raw_path} reported items_per_second")

    def rate_of(name: str):
        # Pool benches run under ->UseRealTime(), which suffixes the
        # benchmark name; accept either form so the summary key is
        # stable across that convention change.
        entry = items.get(name) or items.get(name + "/real_time")
        return entry["items_per_second"] if entry else None

    summary = {
        # Elements simulated per second through each devirtualized
        # fast path; the PR acceptance gate compares these.
        "cc_direct_elements_per_s": rate_of("BM_TimedCcSimulator/direct"),
        "cc_prime_elements_per_s": rate_of("BM_TimedCcSimulator/prime"),
        "cc_streaming_elements_per_s":
            rate_of("BM_StreamingCcSimulator/prime"),
        # A fresh simulator per run on a VCM paper point, as
        # simulateCc builds one per grid point: unlike the reset()-
        # reused cases above, this pays every run's setup and first-
        # touch (compulsory-miss) bookkeeping.
        "cc_fresh_direct_elements_per_s":
            rate_of("BM_FreshCcSimulator/direct"),
        "cc_fresh_prime_elements_per_s":
            rate_of("BM_FreshCcSimulator/prime"),
        # The same point at B=8192, whose read footprint overflows one
        # cache: CI gates its rate against the B=2048 one per scheme,
        # so a first-touch set that regrows mid-run shows as a ratio.
        "cc_fresh_direct_b8192_elements_per_s":
            rate_of("BM_FreshCcSimulator/direct_b8192"),
        "cc_fresh_prime_b8192_elements_per_s":
            rate_of("BM_FreshCcSimulator/prime_b8192"),
        # The B=8192 point under the element-wise oracle
        # (--engine scalar): CI reports the same-run Auto / Scalar
        # ratio per scheme.
        "cc_fresh_direct_b8192_scalar_elements_per_s":
            rate_of("BM_FreshCcSimulator/direct_b8192_scalar"),
        "cc_fresh_prime_b8192_scalar_elements_per_s":
            rate_of("BM_FreshCcSimulator/prime_b8192_scalar"),
        # FFT-2D 128x128 on a fresh simulator: short double-stream
        # ops, most of them hashed rather than classified; CI reports
        # the same-run Auto / Scalar ratio per scheme.
        "cc_fft_direct_elements_per_s":
            rate_of("BM_FftCcSimulator/direct_auto"),
        "cc_fft_direct_scalar_elements_per_s":
            rate_of("BM_FftCcSimulator/direct_scalar"),
        "cc_fft_prime_elements_per_s":
            rate_of("BM_FftCcSimulator/prime_auto"),
        "cc_fft_prime_scalar_elements_per_s":
            rate_of("BM_FftCcSimulator/prime_scalar"),
        # The first-touch set on its own: one cache's worth of a
        # strided stream into a fresh presized set, per stride.
        "first_touch_set_s1_inserts_per_s":
            rate_of("BM_FirstTouchSet/1"),
        "first_touch_set_s8191_inserts_per_s":
            rate_of("BM_FirstTouchSet/8191"),
        "first_touch_set_s8192_inserts_per_s":
            rate_of("BM_FirstTouchSet/8192"),
        "mm_elements_per_s": rate_of("BM_TimedMmSimulator"),
        "functional_direct_elements_per_s":
            rate_of("BM_FunctionalDirectCache"),
        "functional_prime_elements_per_s":
            rate_of("BM_FunctionalPrimeCache"),
        "sweep_points_per_s_jobs1":
            rate_of("BM_ParallelSweepModelSim/1"),
        # Run-batched engine on its streaming constant-stride
        # workload, next to the forced element-wise reference; CI
        # gates both rates and reports the batched/scalar ratio.
        "cc_batched_elements_per_s":
            rate_of("BM_BatchedCcSimulator/batched"),
        "cc_batched_scalar_elements_per_s":
            rate_of("BM_BatchedCcSimulator/scalar"),
        "mm_batched_elements_per_s":
            rate_of("BM_BatchedMmSimulator/batched"),
        "mm_batched_scalar_elements_per_s":
            rate_of("BM_BatchedMmSimulator/scalar"),
        # Two alternating ops the run memo cannot certify: the
        # auto/scalar ratio is the SIMD gang speedup on this host; CI
        # gates it (see the bench-baseline job).
        "cc_gang_elements_per_s":
            rate_of("BM_GangProbeCcSimulator/auto"),
        "cc_gang_scalar_elements_per_s":
            rate_of("BM_GangProbeCcSimulator/scalar"),
        # Shared-trace multi-point evaluation (one workload key, a
        # t_m column of cache configs) next to a loop of independent
        # evaluatePoint calls; CI gates the batch/pointwise ratio.
        "batch_eval_points_per_s": rate_of("BM_BatchEval/batched"),
        "pointwise_eval_points_per_s":
            rate_of("BM_BatchEval/pointwise"),
        # SMARTS-style sampled engine on long batching-refused traces
        # (skewed bank mapping / XOR cache), next to forced scalar
        # replay of the same trace; CI gates the sampled/scalar ratio.
        "mm_sampled_elements_per_s":
            rate_of("BM_SampledMmSimulator/sampled"),
        "mm_sampled_scalar_elements_per_s":
            rate_of("BM_SampledMmSimulator/scalar"),
        "cc_sampled_elements_per_s":
            rate_of("BM_SampledCcSimulator/sampled"),
        "cc_sampled_scalar_elements_per_s":
            rate_of("BM_SampledCcSimulator/scalar"),
    }

    out = {
        "schema_version": 1,
        "source": "bench/micro_sim_throughput via scripts/bench_to_json.py",
        "context": {
            "date": context.get("date"),
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "build_type": stamped["build_type"],
            "compiler": stamped["compiler"],
            "flags": stamped["flags"],
            "build": context.get("vcache_build"),
            "simd_backend": simd_backend,
        },
        "summary": summary,
        "benchmarks": items,
    }

    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path} ({len(items)} benchmarks)")


if __name__ == "__main__":
    main(sys.argv)
