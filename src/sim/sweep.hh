/**
 * @file
 * Parallel, fault-tolerant sweep engine for the model/sim grids.
 *
 * Every figure in the paper's evaluation is a grid walk: evaluate a
 * pure function of (t_m, B, stride, mapping, ...) at each point and
 * print one row per point.  Points are independent, so the driver
 * here fans them out across a fixed-size ThreadPool while keeping the
 * output *byte-identical* to a serial run:
 *
 *  - results land in a pre-sized vector indexed by grid position, so
 *    row order never depends on scheduling;
 *  - per-worker RunningStats are merged in worker-id order via
 *    RunningStats::merge.
 *
 * On top of that, the engine is a *robustness boundary*: a multi-hour
 * sweep must not lose ten thousand completed points to one bad one.
 *
 *  - Each point runs under an error boundary (vc_fatal/vc_panic throw
 *    inside the sweep -- see ScopedThrowingErrors); a failing point
 *    becomes a structured PointFailure and the sweep continues.
 *  - Failed points retry with exponential backoff and deterministic
 *    jitter (retryBackoffMs, seeded from --seed and the point index).
 *  - --point-timeout arms a watchdog thread that cancels a stuck
 *    point through its worker's epoch-tagged CancelToken; simulators
 *    poll the token in their outer loop.
 *  - SIGINT/SIGTERM request a graceful drain (the handler only sets a
 *    volatile sig_atomic_t; all I/O happens on the monitor thread):
 *    in-flight points finish, the checkpoint journal flushes, and a
 *    done/failed/remaining summary prints.
 *  - runCsvSweep journals completed rows to an append-only JSON-lines
 *    checkpoint (--checkpoint) and can --resume, replaying the
 *    journal and skipping completed points; the final CSV is
 *    byte-identical to an uninterrupted run.
 *
 * Determinism contract: anything printed per point must derive from
 * that point's result (seed every RNG from the point index, never
 * from the worker).  The merged SweepOutcome::stats are deterministic
 * in count/min/max/sum-of-samples but, because which worker ran which
 * point is scheduling-dependent, their floating-point accumulation
 * order is not -- use them for stderr summaries, not for table cells.
 */

#ifndef VCACHE_SIM_SWEEP_HH
#define VCACHE_SIM_SWEEP_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/cancel.hh"
#include "util/cli.hh"
#include "util/result.hh"
#include "util/stats.hh"

namespace vcache
{

class ObsRegistry;

/** Per-worker scratch state; never shared between live jobs. */
struct SweepWorker
{
    /** Worker index, 0 <= id < jobs. */
    unsigned id = 0;
    /** Point-evaluator accumulator; merged into SweepOutcome::stats. */
    RunningStats stats;
    /**
     * Points this worker has finished, bumped by the sweep engine
     * after every evaluation.  Read concurrently (relaxed) by the
     * telemetry monitor, so it is atomic -- which also makes
     * SweepWorker non-copyable; the engine only ever hands out
     * references.
     */
    std::atomic<std::uint64_t> pointsDone{0};
    /**
     * Cancellation token for the point this worker is evaluating.
     * Evaluators that run long simulations should wire it into the
     * simulator (setCancelToken / the runner helpers) so a
     * --point-timeout can actually preempt them; evaluators that
     * ignore it simply cannot be timed out mid-point.
     */
    CancelToken cancel;
    /**
     * Milliseconds (since sweep start) at which the current point
     * began, or -1 when idle; published for the watchdog.
     */
    std::atomic<std::int64_t> activeSinceMs{-1};
    /**
     * Points covered by the current evaluation: 1 for a solo point, a
     * group's size during a batched attempt.  The watchdog scales the
     * per-point deadline by it, so a batch gets the same total budget
     * its members would have had individually; any member the batch
     * leaves unfinished falls back to a solo run under the single-
     * point deadline.
     */
    std::atomic<std::uint64_t> activePoints{1};
};

/** Knobs shared by every sweep-driven bench. */
struct SweepOptions
{
    /** Worker threads; 0 means ThreadPool::defaultWorkers(). */
    unsigned jobs = 0;
    /** Base seed benches fold into per-point trace seeds. */
    std::uint64_t seed = 1;
    /** Emit progress/throughput lines on stderr while running. */
    bool progress = true;
    /** Name used in the progress lines. */
    std::string label = "sweep";
    /**
     * Machine-readable progress sink: one JSON object per line
     * (sweep_start, periodic sweep_progress with per-worker point
     * counts, sweep_end).  Null disables telemetry.  The stream is
     * only written from the monitor thread.
     */
    std::shared_ptr<std::ostream> telemetry;

    /**
     * Attempts per point (1 = no retry).  Only the attempt that
     * exhausts this budget records a PointFailure.
     */
    unsigned maxAttempts = 3;
    /** First retry backoff; doubles per attempt (plus jitter). */
    double backoffBaseMs = 100.0;
    /** Backoff ceiling. */
    double backoffMaxMs = 2000.0;
    /**
     * Per-point deadline in seconds; 0 disables the watchdog.  Fires
     * through SweepWorker::cancel, so only evaluators that honour the
     * token are actually preempted.
     */
    double pointTimeoutSeconds = 0.0;
    /** Install SIGINT/SIGTERM graceful-drain handlers for the run. */
    bool handleSignals = false;
    /**
     * Optional instrument sink: the engine publishes sweep.points_ok,
     * sweep.points_failed, sweep.point_retries and sweep.interrupted
     * counters here after the run (see docs/OBSERVABILITY.md).
     */
    ObsRegistry *registry = nullptr;

    /** JSON-lines journal path for runCsvSweep ("" = off). */
    std::string checkpointPath;
    /** Replay checkpointPath and skip completed points. */
    bool resume = false;
};

/** One permanently failed grid point, after all retries. */
struct PointFailure
{
    /** Grid index of the point. */
    std::size_t index = 0;
    /** The error of the final attempt. */
    Error error;
    /** Attempts made (== SweepOptions::maxAttempts unless cancelled). */
    unsigned attempts = 0;
    /** Wall-clock seconds spent across every attempt. */
    double elapsedSeconds = 0.0;
};

/** What one sweep did, for throughput and robustness reporting. */
struct SweepOutcome
{
    /** Grid points the sweep was asked to evaluate. */
    std::size_t points = 0;
    /** Worker threads actually used. */
    unsigned jobs = 1;
    /** Wall-clock seconds for the whole sweep. */
    double seconds = 0.0;
    /** Per-worker accumulators merged in worker-id order. */
    RunningStats stats;

    /** Points that completed successfully. */
    std::size_t completedOk = 0;
    /** Permanently failed points, sorted by grid index. */
    std::vector<PointFailure> failures;
    /** Extra attempts spent retrying points (resolved or not). */
    std::uint64_t retries = 0;
    /** Points completed by a batched group attempt (runSweepBatched). */
    std::uint64_t batchedPoints = 0;
    /** Multi-point groups that got a batched attempt. */
    std::uint64_t batchedGroups = 0;
    /** True when a SIGINT/SIGTERM drain ended the sweep early. */
    bool interrupted = false;
    /** Points never claimed because of the drain. */
    std::size_t remaining = 0;

    /** Points evaluated per wall-clock second. */
    double pointsPerSecond() const;
};

/**
 * Deterministic retry backoff: exponential in `attempt` (the 1-based
 * attempt that just failed), jittered into [0.5, 1.5) of the nominal
 * delay by a xorshift draw seeded from (seed, point, attempt) only --
 * never from the worker or the clock -- so a run's retry schedule is
 * reproducible under --seed.
 */
double retryBackoffMs(std::uint64_t seed, std::size_t point,
                      unsigned attempt, double baseMs, double maxMs);

/**
 * Request a graceful drain of any running sweep, exactly as SIGINT
 * does (tests use this to exercise the drain without signals).
 */
void requestSweepInterrupt();

/** True once an interrupt/drain has been requested. */
bool sweepInterruptRequested();

/** Re-arm after a drained sweep (drivers that sweep repeatedly). */
void clearSweepInterrupt();

/**
 * Evaluate points [0, n) across the pool.
 *
 * The evaluator must be safe to call concurrently for *distinct*
 * indices; the SweepWorker reference it receives is exclusive to the
 * calling thread for the duration of the call.  An evaluator that
 * throws (VcError, any std::exception, or a vc_fatal/vc_panic inside
 * the sweep's throwing-errors scope) fails the point, which retries
 * per SweepOptions and is recorded in SweepOutcome::failures when it
 * never succeeds.
 */
SweepOutcome
runSweep(std::size_t points,
         const std::function<void(std::size_t, SweepWorker &)> &eval,
         const SweepOptions &opts = {});

/**
 * A partition of the grid into shared-workload groups: every index in
 * [0, points) appears in exactly one group.  Group order and member
 * order never affect output (results land by index), only scheduling.
 */
using SweepGroups = std::vector<std::vector<std::size_t>>;

/**
 * runSweep with batched group attempts: workers claim whole groups;
 * a multi-point group first runs through `batchEval`, which returns
 * one success flag per member (in member order -- a short vector or a
 * throw fails the remainder).  Members the batch did not complete
 * fall back to the per-point evaluator with the full retry/backoff/
 * timeout budget, so batching can only add one cheap shared attempt,
 * never weaken per-point isolation.  Failed batches are not retried
 * as batches.  Groups of one, and every group when batchEval is
 * null, take the solo path, in group order.
 *
 * The batch attempt runs under the worker's epoch-tagged token like
 * any point; the watchdog scales the per-point deadline by the group
 * size (see SweepWorker::activePoints).
 */
SweepOutcome runSweepBatched(
    std::size_t points, const SweepGroups &groups,
    const std::function<void(std::size_t, SweepWorker &)> &eval,
    const std::function<std::vector<bool>(std::span<const std::size_t>,
                                          SweepWorker &)> &batchEval,
    const SweepOptions &opts = {});

/**
 * Grid convenience wrapper: results[i] = eval(grid[i], worker), with
 * the results vector pre-sized and indexed by grid position so output
 * ordering matches the serial walk exactly.  Failed points leave
 * their result default-constructed; consult outcome->failures.
 */
template <typename Point, typename F>
auto
sweepGrid(const std::vector<Point> &grid, F &&eval,
          const SweepOptions &opts = {}, SweepOutcome *outcome = nullptr)
{
    using Result =
        std::invoke_result_t<F &, const Point &, SweepWorker &>;
    static_assert(!std::is_void_v<Result>,
                  "use runSweep for evaluators without results");
    std::vector<Result> results(grid.size());
    const auto ran = runSweep(
        grid.size(),
        [&](std::size_t i, SweepWorker &w) { results[i] = eval(grid[i], w); },
        opts);
    if (outcome)
        *outcome = ran;
    return results;
}

/** One CSV row of a checkpointed sweep. */
using CsvRow = std::vector<std::string>;

/** Result of a checkpoint-aware CSV sweep. */
struct CsvSweepResult
{
    /** One row per grid point (failures get the error row). */
    std::vector<CsvRow> rows;
    SweepOutcome outcome;
    /** Points replayed from the journal instead of re-evaluated. */
    std::size_t skipped = 0;

    /** True when every point has a row (nothing left to resume). */
    bool
    complete() const
    {
        return !outcome.interrupted && outcome.remaining == 0;
    }
};

/**
 * Checkpoint-aware sweep for CSV-producing grids: rows journal to
 * opts.checkpointPath as they complete, opts.resume replays the
 * journal and skips finished points, and `errorRow` renders a
 * placeholder row for permanently failed points so the CSV stays
 * rectangular.  Returns an error (not a crash) for an unusable or
 * incompatible journal.
 */
Expected<CsvSweepResult> runCsvSweep(
    std::size_t points,
    const std::function<CsvRow(std::size_t, SweepWorker &)> &eval,
    const std::function<CsvRow(const PointFailure &)> &errorRow,
    const SweepOptions &opts);

/**
 * runCsvSweep over runSweepBatched: `groups` partitions the grid in
 * *grid-index* space (resume-skipped points are filtered out
 * internally), and `batchRows` returns one row per group member --
 * nullopt for members the batch could not complete, which fall back
 * to the per-point evaluator.  Batched rows journal to the checkpoint
 * exactly like solo rows, and because both evaluators must render
 * identical rows for identical results, the CSV is byte-identical to
 * a per-point runCsvSweep.
 */
Expected<CsvSweepResult> runCsvSweepBatched(
    std::size_t points,
    const std::function<CsvRow(std::size_t, SweepWorker &)> &eval,
    const std::function<std::vector<std::optional<CsvRow>>(
        std::span<const std::size_t>, SweepWorker &)> &batchRows,
    const std::function<CsvRow(const PointFailure &)> &errorRow,
    const SweepGroups &groups, const SweepOptions &opts);

/**
 * Register the shared sweep flags: --jobs/--seed/--progress/
 * --telemetry plus the robustness set (--retries, --backoff-ms,
 * --point-timeout, --checkpoint, --resume, --faults).
 */
void addSweepFlags(ArgParser &args);

/**
 * Read the shared flags back.  Rejects implausible --jobs values
 * outright instead of truncating them into a small integer, and
 * installs the --faults plan (warning when fault-injection sites are
 * compiled out).
 */
SweepOptions sweepOptionsFromFlags(const ArgParser &args,
                                   const std::string &label = "sweep");

} // namespace vcache

#endif // VCACHE_SIM_SWEEP_HH
