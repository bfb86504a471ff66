#!/usr/bin/env sh
# Reproduce the whole paper: build, test, and regenerate every figure.
#
#   scripts/reproduce.sh [build-dir]
#
# Outputs land in test_output.txt and bench_output.txt at the repo
# root, the same files EXPERIMENTS.md quotes for its figures and
# tables.  The micro_* binaries run briefly, as a smoke run: their
# rates in bench_output.txt are not measurements.  Each bench binary's
# wall-clock time goes to stderr as it finishes, and a table of all of
# them at the end.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake -B "$build" -G Ninja "$repo"
cmake --build "$build"

ctest --test-dir "$build" 2>&1 | tee "$repo/test_output.txt"

# Wall-clock seconds with nanoseconds (GNU date).
now() { date +%s.%N; }

: > "$repo/bench_output.txt"
times=""
for b in "$build"/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name="$(basename "$b")"
    echo "===== $name =====" | tee -a "$repo/bench_output.txt"
    # The micro-benchmarks time the library, not the paper: a short
    # minimum time per case (plain seconds in google-benchmark 1.7)
    # keeps them from dominating the figure run.  At this length a row
    # early in its process can read up to 1.9x slow while the process
    # warms up, so take rates from a longer run (EXPERIMENTS.md,
    # "Simulator throughput baseline"), never from this one.
    case "$name" in
        micro_*) set -- --benchmark_min_time=0.05 ;;
        *) set -- ;;
    esac
    start="$(now)"
    "$b" "$@" 2>&1 | tee -a "$repo/bench_output.txt"
    secs="$(echo "$start $(now)" | awk '{ printf "%.2f", $2 - $1 }')"
    echo "time: $name ${secs} s" >&2
    times="$times$name $secs
"
done

echo "wall-clock seconds per bench binary:" >&2
printf '%s' "$times" | sort -k2 -rn | awk '{ printf "  %-28s %8s\n", $1, $2 }' >&2
echo "done: see test_output.txt and bench_output.txt"
