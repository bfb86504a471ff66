#!/usr/bin/env python3
"""End-to-end benchmark: paper-grid sweeps and a loaded eval server.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_solo --seed 1 \\
        --seconds 40 --trace 0

Builds the repository in Release under .bench_build/ (first run only),
runs one workload and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, all on CPU clocks scaled to
a reference clock speed; --trace 1 reports the per-layer ledger from a
separate traced run (see perfbench/README.md).
Every metric's name and unit is listed in END_TO_END and PER_LAYER.
Scratch files go to .bench_work/; a copy of each result, with the
build identity, lands in .bench_work/results/ for compare.py.
"""

import argparse
import ctypes
import fcntl
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

# Workloads, each with the reason it exists.
WORKLOADS = {
    "grid_solo": "the sweep_grid surface with per-point seeds and no "
                 "journal: every point takes the streamed solo CC "
                 "engine, bypassing gang lanes and the journal",
    "serve_cold": "vcache_serve with every request a distinct key: "
                  "parse, queue, same-key batching, evaluateBatch, memo "
                  "insert, render",
}

# Every time is on a CPU clock (see README.md, "Why CPU clocks").
END_TO_END = {
    "ops_per_cpu_s": "ops/s",
    "lat_p50_cpu_ms": "ms",
    "lat_p99_cpu_ms": "ms",
    "setup_s": "s",
    "rss_peak_mb": "MiB",
}

PER_LAYER = {
    "trace.arena_us": "us",
    "trace.elements_per_key": "count",
    "trace.share": "ratio",
    "analytic.us_per_point": "us",
    "analytic.share": "ratio",
    "sim.mm.ns_per_element": "ns",
    "sim.mm.share": "ratio",
    "sim.cc.ns_per_element": "ns",
    "sim.cc.share": "ratio",
    "sim.gang.ns_per_lane_element": "ns",
    "sim.gang.lanes_mean": "count",
    "sim.gang.share": "ratio",
    "evaluate.group_size_mean": "count",
    "evaluate.gang_point_ratio": "ratio",
    "evaluate.share": "ratio",
    "sweep.busy_ratio": "ratio",
    "sweep.self_ms": "ms",
    "checkpoint.append_us": "us",
    "proto.parse_us": "us",
    "proto.render_us": "us",
    "proto.share": "ratio",
    "memo.lookup_us": "us",
    "memo.insert_us": "us",
    "memo.replay_s": "s",
    "memo.hit_ratio": "ratio",
    "memo.share": "ratio",
    "server.batch_size_mean": "count",
    "server.queue_peak": "count",
    "server.shed": "count",
    "server.coalesced": "count",
    "server.residual_ms": "ms",
    "gen.late_p99_ms": "ms",
    "gen.samples": "count",
    "ledger.unexplained_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# One worker, so that the server needs one of a shared host's cores.
# A memo of 8192 entries fills in the first third of a serve_cold run,
# so the run measures a long-running server's steady state (full memo,
# LRU evictions) and the server's peak RSS does not track how many
# requests the run happened to complete.  No memo journal: its fsyncs
# would time the shared disk.
SERVER_FLAGS = ["--threads", "1", "--batch-max", "8", "--port", "0",
                "--memo-entries", "8192"]
SETUP_REPS = 9
# A serve run is invalid when p99 has fewer than 10 bursts past it.
MIN_LAT_SAMPLES = 1000
# A traced run is invalid when its layer calls took this much longer
# (or shorter) than the public calls they stand for: the spans cost too
# much, or the replica in src/replica.cc no longer takes the path the
# program takes.
TRACE_OVERHEAD_LIMIT = 0.1

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def run_logged(cmd, logfile, timeout):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if done.returncode != 0:
        with open(logfile) as f:
            tail = f.read()[-3000:]
        raise BenchError(f"command failed: {' '.join(cmd)}\n{tail}")


def build(root):
    """Release build of the repository, then of the driver."""
    build_root = os.path.join(root, BUILD_DIR)
    os.makedirs(build_root, exist_ok=True)
    repo_build = os.path.join(build_root, "repo")
    bench_build = os.path.join(build_root, "perfbench")
    logfile = os.path.join(build_root, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(build_root, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(repo_build, "CMakeCache.txt")):
            run_logged(["cmake", "-S", root, "-B", repo_build,
                        "-DCMAKE_BUILD_TYPE=Release"], logfile, 600)
        run_logged(["cmake", "--build", repo_build, "-j", jobs, "--target",
                    "vcache_serve_tool", "sweep_grid"], logfile, 850)
        if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", bench_build,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DVCACHE_SOURCE_DIR=" + root,
                        "-DVCACHE_BUILD_DIR=" + repo_build], logfile, 300)
        run_logged(["cmake", "--build", bench_build, "-j", jobs], logfile,
                   600)
    return {
        "repo_build": repo_build,
        "driver": os.path.join(bench_build, "perfbench_driver"),
        "serve": os.path.join(repo_build, "tools", "vcache_serve"),
        "sweep_grid": os.path.join(repo_build, "bench", "sweep_grid"),
    }


def cmake_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def build_identity(bins):
    """Everything that must match before two results compare."""
    cache = cmake_cache(bins["repo_build"])
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    info = driver(bins, ["info"])
    serve_version = subprocess.run([bins["serve"], "--version"],
                                   capture_output=True, text=True)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "build_type": build_type,
        "compiler": (version[0] if version else compiler),
        "flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")])),
        "simd": info["simd"],
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "machine": platform.machine(),
        "version": serve_version.stdout.strip(),
    }


def driver(bins, args, timeout=150):
    done = subprocess.run([bins["driver"]] + args, capture_output=True,
                          text=True, timeout=timeout)
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"driver {args[0]} failed ({done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


LIBC = ctypes.CDLL(None, use_errno=True)


def process_cpu_s(pid):
    """CPU time process `pid` has used (all threads), in seconds."""
    clock = ctypes.c_int()
    if LIBC.clock_getcpuclockid(pid, ctypes.byref(clock)) != 0:
        raise BenchError(f"no CPU clock for process {pid}")
    return time.clock_gettime(clock.value)


class Server:
    """One vcache_serve process; the constructor times its start-up on
    the server's own CPU clock."""

    def __init__(self, bins, logfile):
        self.proc = subprocess.Popen(
            [bins["serve"]] + SERVER_FLAGS,
            stdout=subprocess.PIPE, stderr=open(logfile, "a"), text=True)
        self.port = None
        timer = threading.Timer(60, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("listening on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
        finally:
            timer.cancel()
        if self.port is None:
            self.kill()
            raise BenchError("vcache_serve did not start")
        self.setup_s = process_cpu_s(self.proc.pid)

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """Graceful drain (flushes the memo journal), then reap."""
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=10) as s:
                s.sendall(b'{"op":"shutdown"}\n')
                s.recv(4096)
            self.proc.communicate(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError(f"vcache_serve exited {self.proc.returncode}")

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()


def run_grid(bins, args, work):
    out = driver(bins, ["grid", "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", "true" if args.trace else "false",
                        "--work", work])
    # One pass of each kind must be byte-identical to sweep_grid's CSV
    # for the same seed.
    for phase in ("untraced", "traced"):
        seed = out.get(f"csv_{phase}_seed")
        if seed is None:
            continue
        ref = subprocess.run(
            [bins["sweep_grid"], "--jobs", "1", "--seed", str(seed),
             "--progress", "false"],
            capture_output=True, timeout=120)
        with open(os.path.join(work, f"{phase}_pass.csv"), "rb") as f:
            same = ref.returncode == 0 and ref.stdout == f.read()
        out["attempted"] += 1
        if not same:
            log(f"{phase} pass differs from sweep_grid --seed {seed}")
            out["failed"] += 1
    return out, True


def run_serve(bins, args, work):
    logfile = os.path.join(work, "serve.log")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", work]
    servers = []
    try:
        setups = []
        for rep in range(SETUP_REPS):
            servers.append(Server(bins, logfile))
            server = servers[-1]
            setups.append(server.setup_s)
            if rep + 1 < SETUP_REPS:
                server.stop()
        out = driver(bins, ["load", "--port", str(server.port),
                            "--server-pid", str(server.proc.pid),
                            "--seconds", str(args.seconds)] + common)
        out["rss_peak_mb"] = server.peak_rss_mib()
        server.stop()
    finally:
        for server in servers:
            server.kill()
    # Server CPU time, at the reference clock speed like every other
    # figure (clock_scale from the load driver).
    out["setup_s"] = statistics.median(setups) * out["clock_scale"]

    valid = out["lat_samples"] >= MIN_LAT_SAMPLES
    if not valid:
        log(f"serve run invalid: {out['lat_samples']} latency samples")

    if args.trace:
        replay = driver(bins, ["replay", "--seconds", str(args.seconds / 2)]
                        + common)
        out["attempted"] += replay.pop("attempted")
        out["failed"] += replay.pop("failed")
        out.update(replay)
        residual = out["lat_p50_ms"] - replay["replay_p50_ms"]
        out["server.residual_ms"] = residual
        out["ledger.unexplained_ratio"] = (
            residual / out["lat_p50_ms"] if out["lat_p50_ms"] else 0.0)
    return out, valid


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "tools", "bench", "scripts"):
        if not os.path.exists(os.path.join(root, need)):
            log(f"no repository at {root} (missing {need}); run from "
                "the repository root")
            return 2

    try:
        bins = build(root)
        identity = build_identity(bins)
        print("identity:", json.dumps(identity, sort_keys=True))
        if identity["build_type"] != "Release":
            raise BenchError("benchmark needs a Release build")

        work = os.path.join(root, WORK_DIR, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        runner = run_grid if args.workload.startswith("grid") else run_serve
        out, valid = runner(bins, args, work)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError) as err:
        log(str(err))
        return 1

    failed = int(out["failed"])
    if args.trace and abs(out["trace.overhead_ratio"]) > TRACE_OVERHEAD_LIMIT:
        log(f"traced run invalid: trace.overhead_ratio "
            f"{out['trace.overhead_ratio']:+.3f} is past "
            f"±{TRACE_OVERHEAD_LIMIT}")
        valid = False
    if args.trace:
        check = subprocess.run(
            [sys.executable, os.path.join(root, "scripts",
                                          "validate_trace.py"),
             os.path.join(work, "trace.json")],
            capture_output=True, text=True)
        print(check.stdout.strip() or check.stderr.strip())
        out["attempted"] += 1
        failed += 0 if check.returncode == 0 else 1
        names = PER_LAYER
    else:
        names = END_TO_END
    metrics = {name: {"value": float(out.get(name, 0.0)), "unit": unit}
               for name, unit in names.items()}

    print(f"{args.workload} seed {args.seed}: lat samples "
          f"{int(out['lat_samples'])}, oracle checks "
          f"{int(out['oracle_checked'])}, attempted "
          f"{int(out['attempted'])}, failed {failed}")
    result = {"correct": failed == 0 and valid,
              "attempted": int(out["attempted"]), "failed": failed,
              "metrics": metrics}
    results = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"identity": identity, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace,
                   "result": result, "raw": out}, f, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
