#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/registry.hh"
#include "sim/checkpoint.hh"
#include "util/faultinject.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace vcache
{

namespace
{

/** Largest --jobs value that is plausibly a thread count. */
constexpr std::uint64_t kMaxJobs = 1024;

/** Largest --retries value that is plausibly intentional. */
constexpr std::uint64_t kMaxRetries = 100;

/** Seconds between progress lines. */
constexpr double kProgressPeriod = 2.0;

/** Watchdog poll period. */
constexpr auto kWatchdogTick = std::chrono::milliseconds(20);

/**
 * Monitor ticks (~100 ms each) of runner-healing with zero completed
 * points before the sweep concludes the pool is unrecoverable (an
 * injected dispatch fault firing on every submission) and drains.
 */
constexpr unsigned kMaxBarrenHeals = 20;

/** Backoff sleeps are sliced this fine so a drain is not kept waiting. */
constexpr auto kBackoffSlice = std::chrono::milliseconds(25);

/**
 * Interrupt request shared between the signal handler and the sweep.
 * The handler writes nothing but this flag -- no locks, no I/O, no
 * allocation -- which is the whole async-signal-safety contract; the
 * monitor thread polls it on its normal tick.  A lock-free atomic
 * (asserted below) is async-signal-safe like sig_atomic_t but also
 * race-free for the worker threads and requestSweepInterrupt(),
 * which read and write it off the signal path.
 */
std::atomic<int> g_sweep_interrupt{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler needs a lock-free interrupt flag");

void
sweepSignalHandler(int)
{
    g_sweep_interrupt.store(1, std::memory_order_relaxed);
}

/** Poll the drain flag (signal handler or cross-thread request). */
bool
interruptPending()
{
    return g_sweep_interrupt.load(std::memory_order_relaxed) != 0;
}

/** Install SIGINT/SIGTERM drain handlers for one sweep's lifetime. */
class ScopedSignalHandlers
{
  public:
    explicit ScopedSignalHandlers(bool install) : installed(install)
    {
        if (!installed)
            return;
        prev_int = std::signal(SIGINT, sweepSignalHandler);
        prev_term = std::signal(SIGTERM, sweepSignalHandler);
    }

    ~ScopedSignalHandlers()
    {
        if (!installed)
            return;
        std::signal(SIGINT, prev_int);
        std::signal(SIGTERM, prev_term);
    }

    ScopedSignalHandlers(const ScopedSignalHandlers &) = delete;
    ScopedSignalHandlers &operator=(const ScopedSignalHandlers &) =
        delete;

  private:
    bool installed;
    void (*prev_int)(int) = SIG_DFL;
    void (*prev_term)(int) = SIG_DFL;
};

/** Fixed one-decimal rendering for rates and ETAs. */
std::string
fmt1(double v)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << v;
    return os.str();
}

/** Append the per-worker pointsDone array as a JSON list. */
void
appendWorkerCounts(std::ostream &os,
                   const std::vector<SweepWorker> &workers)
{
    os << "\"workers\":[";
    for (std::size_t w = 0; w < workers.size(); ++w) {
        if (w)
            os << ',';
        os << workers[w].pointsDone.load(std::memory_order_relaxed);
    }
    os << ']';
}

/** Normalise whatever an evaluator threw into a structured Error. */
Error
errorFromCurrentException()
{
    try {
        throw;
    } catch (const VcError &e) {
        return e.error();
    } catch (const std::exception &e) {
        return makeError(Errc::InternalInvariant,
                         std::string("unexpected exception: ") +
                             e.what());
    } catch (...) {
        return makeError(Errc::InternalInvariant,
                         "unknown exception from point evaluator");
    }
}

} // namespace

double
SweepOutcome::pointsPerSecond() const
{
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(points) / seconds;
}

double
retryBackoffMs(std::uint64_t seed, std::size_t point, unsigned attempt,
               double baseMs, double maxMs)
{
    if (baseMs <= 0.0)
        return 0.0;
    const unsigned exponent = std::min(attempt > 0 ? attempt - 1 : 0u,
                                       30u);
    double nominal = baseMs * static_cast<double>(1ull << exponent);
    nominal = std::min(nominal, std::max(maxMs, baseMs));
    // Jitter from (seed, point, attempt) only: reruns under the same
    // --seed reproduce the exact same retry schedule.
    Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (point + 1)) ^
            (0x517cc1b727220a95ull * (attempt + 1)));
    return nominal * (0.5 + rng.uniformReal());
}

void
requestSweepInterrupt()
{
    g_sweep_interrupt.store(1, std::memory_order_relaxed);
}

bool
sweepInterruptRequested()
{
    return interruptPending();
}

void
clearSweepInterrupt()
{
    g_sweep_interrupt.store(0, std::memory_order_relaxed);
}

namespace
{

using BatchEval = std::function<std::vector<bool>(
    std::span<const std::size_t>, SweepWorker &)>;

/**
 * Shared engine behind runSweep and runSweepBatched.  `groups` is
 * null for the classic per-point sweep; otherwise it partitions
 * [0, points) and workers claim whole groups, attempting multi-point
 * ones through `batchEval` first.
 */
SweepOutcome
runSweepImpl(std::size_t points, const SweepGroups *groups,
             const std::function<void(std::size_t, SweepWorker &)> &eval,
             const BatchEval &batchEval, const SweepOptions &opts)
{
    vc_assert(eval, "sweep needs a point evaluator");
    vc_assert(opts.maxAttempts > 0, "sweep needs at least one attempt");
    if (!batchEval)
        groups = nullptr;

    unsigned jobs = opts.jobs ? opts.jobs : ThreadPool::defaultWorkers();
    if (points > 0 && jobs > points)
        jobs = static_cast<unsigned>(points);

    SweepOutcome outcome;
    outcome.points = points;
    outcome.jobs = jobs;
    if (points == 0)
        return outcome;

    ScopedSignalHandlers signals(opts.handleSignals);

    std::vector<SweepWorker> workers(jobs);
    for (unsigned w = 0; w < jobs; ++w)
        workers[w].id = w;

    // Dynamic point distribution: each runner pulls the next unclaimed
    // unit (a point, or a whole group when batching), so slow points
    // do not stall a statically partitioned neighbour.  Result
    // placement stays deterministic because the caller indexes by
    // grid position.
    const std::size_t units = groups ? groups->size() : points;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> ok_count{0};
    std::atomic<std::uint64_t> retry_count{0};
    std::atomic<std::uint64_t> batched_points{0};
    std::atomic<std::uint64_t> batched_groups{0};
    std::mutex done_mtx;
    std::condition_variable done_cv;

    std::mutex failures_mtx;
    std::vector<PointFailure> failures;

    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    auto elapsedMs = [&start] {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    std::ostream *telemetry = opts.telemetry.get();
    if (telemetry) {
        *telemetry << "{\"event\":\"sweep_start\",\"label\":\""
                   << json::escape(opts.label) << "\",\"points\":"
                   << points << ",\"jobs\":" << jobs << "}\n"
                   << std::flush;
    }

    // Inside the sweep, vc_fatal/vc_panic become VcError so one bad
    // grid point cannot take the run down; the per-attempt catch
    // below is the matching boundary.
    ScopedThrowingErrors throwing_scope;

    /** Evaluate one point with retry/backoff; never throws. */
    auto runPoint = [&](std::size_t i, SweepWorker &w) {
        const auto point_start = std::chrono::steady_clock::now();
        auto recordFailure = [&](Error e, unsigned attempts) {
            const double spent =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - point_start)
                    .count();
            std::lock_guard<std::mutex> lock(failures_mtx);
            failures.push_back({i, std::move(e), attempts, spent});
        };
        for (unsigned attempt = 1;; ++attempt) {
            w.cancel.beginEpoch();
            w.activeSinceMs.store(elapsedMs(),
                                  std::memory_order_release);
            bool point_ok = false;
            Error err;
            try {
                eval(i, w);
                point_ok = true;
            } catch (...) {
                err = errorFromCurrentException();
            }
            w.activeSinceMs.store(-1, std::memory_order_release);

            if (point_ok) {
                // Retries were already counted as they were
                // scheduled, below.
                ok_count.fetch_add(1, std::memory_order_relaxed);
                return;
            }

            const bool last = attempt >= opts.maxAttempts ||
                              interruptPending();
            warn(opts.label, ": point ", i, " failed (attempt ",
                 attempt, "/", opts.maxAttempts, "): ",
                 err.describe(), last && attempt < opts.maxAttempts
                                     ? " -- drain requested, not "
                                       "retrying"
                                     : "");
            if (last) {
                recordFailure(std::move(err), attempt);
                return;
            }

            // Deterministic backoff, sliced so a drain interrupts it.
            double wait_ms = retryBackoffMs(opts.seed, i, attempt,
                                            opts.backoffBaseMs,
                                            opts.backoffMaxMs);
            while (wait_ms > 0.0 && !interruptPending()) {
                const auto slice = std::min<double>(
                    wait_ms,
                    static_cast<double>(kBackoffSlice.count()));
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(slice));
                wait_ms -= slice;
            }
            // A drain that arrived mid-backoff must not burn a whole
            // extra attempt; record the failure and let the worker
            // exit.
            if (interruptPending()) {
                warn(opts.label, ": point ", i, " -- drain requested "
                     "during backoff, not retrying");
                recordFailure(std::move(err), attempt);
                return;
            }
            retry_count.fetch_add(1, std::memory_order_relaxed);
        }
    };

    /** Bump the per-worker and global completion counts for a point. */
    auto completePoint = [&](SweepWorker &w) {
        w.pointsDone.fetch_add(1, std::memory_order_relaxed);
        if (done.fetch_add(1, std::memory_order_release) + 1 ==
            points) {
            std::lock_guard<std::mutex> lock(done_mtx);
            done_cv.notify_all();
        }
    };

    /**
     * One shared attempt for a whole group; members it completes are
     * done, the rest take the solo path (runPoint) with the full
     * retry budget, so a failing batch costs one extra attempt and
     * nothing else.
     */
    auto runGroup = [&](const std::vector<std::size_t> &members,
                        SweepWorker &w) {
        std::vector<bool> ok_flags;
        if (members.size() > 1 && !interruptPending()) {
            batched_groups.fetch_add(1, std::memory_order_relaxed);
            w.cancel.beginEpoch();
            w.activePoints.store(members.size(),
                                 std::memory_order_release);
            w.activeSinceMs.store(elapsedMs(),
                                  std::memory_order_release);
            try {
                ok_flags = batchEval(members, w);
            } catch (...) {
                const Error err = errorFromCurrentException();
                warn(opts.label, ": batched attempt over ",
                     members.size(), " points failed (",
                     err.describe(), "); falling back per point");
                ok_flags.clear();
            }
            w.activeSinceMs.store(-1, std::memory_order_release);
            w.activePoints.store(1, std::memory_order_release);
        }
        for (std::size_t k = 0; k < members.size(); ++k) {
            if (k < ok_flags.size() && ok_flags[k]) {
                ok_count.fetch_add(1, std::memory_order_relaxed);
                batched_points.fetch_add(1,
                                         std::memory_order_relaxed);
            } else {
                runPoint(members[k], w);
            }
            completePoint(w);
        }
    };

    auto runner = [&](unsigned worker) {
        for (;;) {
            const std::size_t u =
                next.fetch_add(1, std::memory_order_relaxed);
            if (u >= units)
                return;
            SweepWorker &w = workers[worker];
            if (!groups) {
                runPoint(u, w);
                completePoint(w);
                continue;
            }
            runGroup((*groups)[u], w);
        }
    };

    {
        ThreadPool pool(jobs);
        for (unsigned w = 0; w < jobs; ++w)
            pool.submit(runner);

        // Watchdog: cancels points that blow the per-point deadline.
        // The double read of activeSinceMs around the snapshot makes
        // sure the epoch we cancel is the epoch we timed; a worker
        // that moved on wins the race and keeps its fresh point.
        std::atomic<bool> watchdog_stop{false};
        std::thread watchdog;
        if (opts.pointTimeoutSeconds > 0.0) {
            const auto timeout_ms = static_cast<std::int64_t>(
                opts.pointTimeoutSeconds * 1000.0);
            watchdog = std::thread([&, timeout_ms] {
                while (!watchdog_stop.load(std::memory_order_acquire)) {
                    std::this_thread::sleep_for(kWatchdogTick);
                    const std::int64_t now_ms = elapsedMs();
                    for (auto &w : workers) {
                        const std::int64_t since =
                            w.activeSinceMs.load(
                                std::memory_order_acquire);
                        // A batched attempt covers activePoints
                        // points, so it gets that many single-point
                        // deadlines before the watchdog fires.
                        const auto budget =
                            timeout_ms *
                            static_cast<std::int64_t>(
                                w.activePoints.load(
                                    std::memory_order_acquire));
                        if (since < 0 || now_ms - since < budget)
                            continue;
                        const std::uint64_t snap = w.cancel.snapshot();
                        if (w.activeSinceMs.load(
                                std::memory_order_acquire) != since)
                            continue;
                        w.cancel.requestCancelIf(
                            snap, CancelToken::Reason::Timeout);
                    }
                }
            });
        }

        bool draining = false;
        std::size_t last_heal_done = 0;
        unsigned heals_without_progress = 0;
        std::unique_lock<std::mutex> lock(done_mtx);
        double next_report = kProgressPeriod;
        while (done.load(std::memory_order_acquire) < points) {
            done_cv.wait_for(lock, std::chrono::milliseconds(100));
            if (interruptPending() && !draining) {
                draining = true;
                // Stop claims; in-flight points finish (or skip their
                // remaining retries) and the journal flushes.
                next.store(units, std::memory_order_relaxed);
                if (opts.progress)
                    inform(opts.label,
                           ": interrupt -- draining in-flight "
                           "points");
            }
            const auto d = done.load(std::memory_order_acquire);
            if (d >= points)
                break;
            lock.unlock();
            const std::size_t in_pool = pool.pending();
            lock.lock();
            if (in_pool == 0) {
                if (draining)
                    break;
                // Every runner died before draining the grid -- only
                // possible when injected threadpool.dispatch faults
                // swallowed the jobs.  Resubmit one; claims were not
                // lost (a dispatch fault fires before the first
                // claim), so the sweep heals.  A plan that kills
                // *every* dispatch would livelock here, so give up
                // once healing repeatedly makes no progress and
                // drain like an interrupt instead.
                if (d > last_heal_done) {
                    last_heal_done = d;
                    heals_without_progress = 0;
                }
                if (++heals_without_progress > kMaxBarrenHeals) {
                    draining = true;
                    next.store(units, std::memory_order_relaxed);
                    warn(opts.label,
                         ": workers keep dying before claiming "
                         "points; giving up on the remaining grid");
                    break;
                }
                pool.submit(runner);
                continue;
            }
            const double t = elapsed();
            if (t < next_report)
                continue;
            next_report = t + kProgressPeriod;
            if (d == 0)
                continue;
            std::size_t failed_now;
            {
                std::lock_guard<std::mutex> flock(failures_mtx);
                failed_now = failures.size();
            }
            const double rate = static_cast<double>(d) / t;
            const double eta =
                static_cast<double>(points - d) / rate;
            if (opts.progress) {
                inform(opts.label, ": ", d, "/", points, " points, ",
                       fmt1(rate), " points/s, ETA ", fmt1(eta), " s",
                       failed_now ? detail::concat(", ", failed_now,
                                                   " failed")
                                  : "");
            }
            if (telemetry) {
                *telemetry << "{\"event\":\"sweep_progress\","
                           << "\"label\":\"" << json::escape(opts.label)
                           << "\",\"done\":" << d << ",\"points\":"
                           << points << ",\"failed\":" << failed_now
                           << ",\"elapsed_s\":" << fmt1(t)
                           << ",\"points_per_s\":" << fmt1(rate)
                           << ",\"eta_s\":" << fmt1(eta) << ',';
                appendWorkerCounts(*telemetry, workers);
                *telemetry << "}\n" << std::flush;
            }
        }
        outcome.interrupted = draining;
        lock.unlock();
        pool.wait();
        watchdog_stop.store(true, std::memory_order_release);
        if (watchdog.joinable())
            watchdog.join();
    }

    outcome.seconds = elapsed();
    // Merge in worker-id order so the accumulation order never
    // depends on which worker finished last.
    for (const auto &w : workers)
        outcome.stats.merge(w.stats);

    outcome.completedOk = ok_count.load(std::memory_order_relaxed);
    outcome.retries = retry_count.load(std::memory_order_relaxed);
    outcome.batchedPoints =
        batched_points.load(std::memory_order_relaxed);
    outcome.batchedGroups =
        batched_groups.load(std::memory_order_relaxed);
    outcome.failures = std::move(failures);
    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const PointFailure &a, const PointFailure &b) {
                  return a.index < b.index;
              });
    outcome.remaining =
        points - outcome.completedOk - outcome.failures.size();

    if (opts.registry) {
        // Aggregated once, after the pool has drained, so the
        // registry needs no locking of its own.
        opts.registry->counter("sweep.points_ok",
                               "grid points completed successfully") +=
            outcome.completedOk;
        opts.registry->counter("sweep.points_failed",
                               "grid points failed after retries") +=
            outcome.failures.size();
        opts.registry->counter("sweep.point_retries",
                               "extra attempts spent on grid points") +=
            outcome.retries;
        opts.registry->counter(
            "sweep.interrupted",
            "sweeps ended early by SIGINT/SIGTERM drain") +=
            outcome.interrupted ? 1 : 0;
        opts.registry->counter(
            "sweep.batch_points",
            "grid points completed by a batched group attempt") +=
            outcome.batchedPoints;
        opts.registry->counter(
            "sweep.batch_groups",
            "shared-workload groups given a batched attempt") +=
            outcome.batchedGroups;
    }

    if (opts.progress) {
        if (outcome.interrupted) {
            inform(opts.label, ": interrupted -- ",
                   outcome.completedOk, " ok, ",
                   outcome.failures.size(), " failed, ",
                   outcome.remaining, " remaining (",
                   fmt1(outcome.seconds), " s)");
        } else {
            inform(opts.label, ": ", points, " points in ",
                   fmt1(outcome.seconds), " s (",
                   fmt1(outcome.pointsPerSecond()),
                   " points/s, jobs=", jobs,
                   outcome.failures.empty()
                       ? std::string()
                       : detail::concat(", ",
                                        outcome.failures.size(),
                                        " failed"),
                   ")");
        }
    }
    if (telemetry) {
        *telemetry << "{\"event\":\"sweep_end\",\"label\":\""
                   << json::escape(opts.label) << "\",\"points\":"
                   << points << ",\"jobs\":" << jobs
                   << ",\"seconds\":" << fmt1(outcome.seconds)
                   << ",\"points_per_s\":"
                   << fmt1(outcome.pointsPerSecond())
                   << ",\"ok\":" << outcome.completedOk
                   << ",\"failed\":" << outcome.failures.size()
                   << ",\"retries\":" << outcome.retries
                   << ",\"interrupted\":"
                   << (outcome.interrupted ? "true" : "false") << ',';
        appendWorkerCounts(*telemetry, workers);
        *telemetry << "}\n" << std::flush;
    }
    return outcome;
}

} // namespace

SweepOutcome
runSweep(std::size_t points,
         const std::function<void(std::size_t, SweepWorker &)> &eval,
         const SweepOptions &opts)
{
    return runSweepImpl(points, nullptr, eval, {}, opts);
}

SweepOutcome
runSweepBatched(
    std::size_t points, const SweepGroups &groups,
    const std::function<void(std::size_t, SweepWorker &)> &eval,
    const std::function<std::vector<bool>(std::span<const std::size_t>,
                                          SweepWorker &)> &batchEval,
    const SweepOptions &opts)
{
    // A grouping that drops or repeats a point would silently corrupt
    // result placement; fail loudly instead.
    std::vector<char> seen(points, 0);
    std::size_t covered = 0;
    for (const auto &members : groups) {
        for (const std::size_t i : members) {
            vc_assert(i < points, "sweep group index out of range");
            vc_assert(!seen[i], "sweep group repeats a point");
            seen[i] = 1;
            ++covered;
        }
    }
    vc_assert(covered == points,
              "sweep groups must cover every point");
    return runSweepImpl(points, &groups, eval, batchEval, opts);
}

namespace
{

/** Shared body of runCsvSweep and runCsvSweepBatched. */
Expected<CsvSweepResult>
runCsvSweepImpl(
    std::size_t points,
    const std::function<CsvRow(std::size_t, SweepWorker &)> &eval,
    const std::function<std::vector<std::optional<CsvRow>>(
        std::span<const std::size_t>, SweepWorker &)> &batchRows,
    const std::function<CsvRow(const PointFailure &)> &errorRow,
    const SweepGroups *groups, const SweepOptions &opts)
{
    vc_assert(eval, "csv sweep needs a point evaluator");
    vc_assert(errorRow, "csv sweep needs an error-row renderer");

    CsvSweepResult result;
    result.rows.assign(points, {});
    std::vector<char> have(points, 0);

    if (opts.resume && opts.checkpointPath.empty())
        return makeError(Errc::InvalidConfig,
                         "--resume requires --checkpoint");

    std::unique_ptr<CheckpointWriter> writer;
    if (!opts.checkpointPath.empty()) {
        const CheckpointHeader header{opts.label, points, opts.seed};
        bool append = false;
        if (opts.resume) {
            if (std::ifstream(opts.checkpointPath).good()) {
                auto replay = readCheckpoint(opts.checkpointPath);
                if (!replay.ok())
                    return replay.error();
                auto compat =
                    checkResumeCompatible(replay.value(), header);
                if (!compat.ok())
                    return compat.error();
                if (opts.registry) {
                    opts.registry->counter(
                        "checkpoint.duplicates",
                        "journal records that re-wrote an "
                        "already-seen point (last record won)") +=
                        replay.value().duplicates;
                }
                if (replay.value().duplicates) {
                    warn(opts.label, ": checkpoint replayed ",
                         replay.value().duplicates,
                         " duplicate point record(s); kept the "
                         "latest of each");
                }
                for (const auto &[pt, row] : replay.value().done) {
                    if (pt >= points)
                        return makeError(
                            Errc::Io,
                            "checkpoint row for point " +
                                std::to_string(pt) +
                                " is outside the grid");
                    result.rows[pt] = row;
                    have[pt] = 1;
                    ++result.skipped;
                }
                append = true;
            } else {
                warn("--resume: checkpoint '", opts.checkpointPath,
                     "' not found; starting fresh");
            }
        }
        auto opened =
            CheckpointWriter::open(opts.checkpointPath, header, append);
        if (!opened.ok())
            return opened.error();
        writer = std::move(opened.value());
    }

    std::vector<std::size_t> todo;
    todo.reserve(points - result.skipped);
    for (std::size_t i = 0; i < points; ++i)
        if (!have[i])
            todo.push_back(i);

    if (opts.progress && result.skipped) {
        inform(opts.label, ": resume skips ", result.skipped, "/",
               points, " journalled points");
    }

    CheckpointWriter *journal = writer.get();
    auto journalRow = [&](std::size_t i, CsvRow row) {
        if (journal) {
            auto rec = journal->recordDone(i, row);
            if (!rec.ok())
                warn(opts.label, ": ", rec.error().describe());
        }
        // Distinct grid indices -> distinct rows; no lock needed.
        result.rows[i] = std::move(row);
    };
    auto evalTodo = [&](std::size_t j, SweepWorker &w) {
        const std::size_t i = todo[j];
        journalRow(i, eval(i, w));
    };

    if (groups && batchRows) {
        // The caller grouped grid indices; the sweep runs over todo
        // positions, so remap (dropping resume-journalled members).
        std::vector<std::size_t> pos(points, points);
        for (std::size_t j = 0; j < todo.size(); ++j)
            pos[todo[j]] = j;
        SweepGroups todo_groups;
        todo_groups.reserve(groups->size());
        for (const auto &members : *groups) {
            std::vector<std::size_t> alive;
            alive.reserve(members.size());
            for (const std::size_t i : members) {
                vc_assert(i < points,
                          "sweep group index out of range");
                if (pos[i] < points)
                    alive.push_back(pos[i]);
            }
            if (!alive.empty())
                todo_groups.push_back(std::move(alive));
        }
        result.outcome = runSweepBatched(
            todo.size(), todo_groups, evalTodo,
            [&](std::span<const std::size_t> js, SweepWorker &w) {
                std::vector<std::size_t> idx;
                idx.reserve(js.size());
                for (const std::size_t j : js)
                    idx.push_back(todo[j]);
                auto rows = batchRows(idx, w);
                std::vector<bool> ok(js.size(), false);
                for (std::size_t k = 0;
                     k < js.size() && k < rows.size(); ++k) {
                    if (!rows[k])
                        continue;
                    journalRow(idx[k], std::move(*rows[k]));
                    ok[k] = true;
                }
                return ok;
            },
            opts);
    } else {
        result.outcome = runSweep(todo.size(), evalTodo, opts);
    }

    // runSweep numbered failures by todo position; translate back to
    // grid indices (monotone, so the sort order survives).
    for (auto &f : result.outcome.failures) {
        f.index = todo[f.index];
        if (journal) {
            auto rec =
                journal->recordFailed(f.index, f.error, f.attempts);
            if (!rec.ok())
                warn(opts.label, ": ", rec.error().describe());
        }
        result.rows[f.index] = errorRow(f);
    }
    if (journal) {
        auto flushed = journal->flush();
        if (!flushed.ok())
            warn(opts.label, ": ", flushed.error().describe());
    }
    return result;
}

} // namespace

Expected<CsvSweepResult>
runCsvSweep(std::size_t points,
            const std::function<CsvRow(std::size_t, SweepWorker &)> &eval,
            const std::function<CsvRow(const PointFailure &)> &errorRow,
            const SweepOptions &opts)
{
    return runCsvSweepImpl(points, eval, {}, errorRow, nullptr, opts);
}

Expected<CsvSweepResult>
runCsvSweepBatched(
    std::size_t points,
    const std::function<CsvRow(std::size_t, SweepWorker &)> &eval,
    const std::function<std::vector<std::optional<CsvRow>>(
        std::span<const std::size_t>, SweepWorker &)> &batchRows,
    const std::function<CsvRow(const PointFailure &)> &errorRow,
    const SweepGroups &groups, const SweepOptions &opts)
{
    return runCsvSweepImpl(points, eval, batchRows, errorRow, &groups,
                           opts);
}

void
addSweepFlags(ArgParser &args)
{
    args.addFlag("jobs", "0",
                 "worker threads for grid sweeps; 0 = one per "
                 "hardware thread");
    args.addFlag("seed", "1",
                 "base seed folded into every per-point trace seed");
    args.addFlag("progress", "true",
                 "print progress/throughput lines on stderr");
    args.addFlag("telemetry", "",
                 "emit machine-readable JSON-lines sweep progress "
                 "(per-worker point counts) to this file; "
                 "\"-\" = stderr");
    args.addFlag("retries", "2",
                 "retry attempts per failed grid point (0 = fail "
                 "fast)");
    args.addFlag("backoff-ms", "100",
                 "base retry backoff in milliseconds; doubles per "
                 "attempt with deterministic jitter");
    args.addFlag("point-timeout", "0",
                 "per-point deadline in seconds; 0 = no deadline");
    args.addFlag("checkpoint", "",
                 "journal completed points to this JSON-lines file "
                 "for --resume");
    args.addFlag("resume", "false",
                 "replay --checkpoint and skip completed points");
    args.addFlag("faults", "",
                 "fault-injection plan 'site=action@trigger[;...]' "
                 "(see docs/ROBUSTNESS.md); needs a "
                 "-DVCACHE_FAULT_INJECTION=ON build");
}

SweepOptions
sweepOptionsFromFlags(const ArgParser &args, const std::string &label)
{
    SweepOptions opts;
    const std::uint64_t jobs = args.getUint("jobs");
    if (jobs > kMaxJobs)
        vc_fatal("--jobs ", jobs, " is out of range (max ", kMaxJobs,
                 ")");
    opts.jobs = static_cast<unsigned>(jobs);
    opts.seed = args.getUint("seed");
    opts.progress = args.getBool("progress");
    opts.label = label;

    const std::string telemetry = args.getString("telemetry");
    if (telemetry == "-") {
        // Non-owning alias: stderr outlives every sweep.
        opts.telemetry =
            std::shared_ptr<std::ostream>(std::shared_ptr<void>(),
                                          &std::cerr);
    } else if (!telemetry.empty()) {
        auto file = std::make_shared<std::ofstream>(telemetry);
        if (!*file)
            vc_fatal("cannot open --telemetry destination '",
                     telemetry, "'");
        opts.telemetry = file;
    }

    const std::uint64_t retries = args.getUint("retries");
    if (retries > kMaxRetries)
        vc_fatal("--retries ", retries, " is out of range (max ",
                 kMaxRetries, ")");
    opts.maxAttempts = static_cast<unsigned>(retries) + 1;

    opts.backoffBaseMs = args.getDouble("backoff-ms");
    if (opts.backoffBaseMs < 0.0)
        vc_fatal("--backoff-ms must be non-negative");
    opts.backoffMaxMs = std::max(opts.backoffMaxMs, opts.backoffBaseMs);

    opts.pointTimeoutSeconds = args.getDouble("point-timeout");
    if (opts.pointTimeoutSeconds < 0.0)
        vc_fatal("--point-timeout must be non-negative");

    opts.checkpointPath = args.getString("checkpoint");
    opts.resume = args.getBool("resume");
    if (opts.resume && opts.checkpointPath.empty())
        vc_fatal("--resume requires --checkpoint");

    const std::string fault_spec = args.getString("faults");
    if (!fault_spec.empty()) {
        auto plan = faults::parseFaultSpec(fault_spec, opts.seed);
        if (!plan.ok())
            vc_fatal(plan.error().describe());
        faults::configureFaults(plan.value());
        if (!faults::kEnabled)
            warn("--faults: fault-injection sites are compiled out; "
                 "rebuild with -DVCACHE_FAULT_INJECTION=ON for the "
                 "plan to fire");
    }

    // CLI-driven sweeps drain gracefully on ^C; embedded/test sweeps
    // opt in explicitly.
    opts.handleSignals = true;
    return opts;
}

} // namespace vcache
