/** Tests for the parallel sweep engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/comparison.hh"
#include "core/defaults.hh"
#include "obs/registry.hh"
#include "sim/sweep.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace vcache
{
namespace
{

SweepOptions
quiet(unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    return opts;
}

TEST(Sweep, ResultsIndexedByGridPosition)
{
    std::vector<int> grid;
    for (int i = 0; i < 100; ++i)
        grid.push_back(i);
    const auto results = sweepGrid(
        grid, [](const int &v, SweepWorker &) { return v * v; },
        quiet(4));
    ASSERT_EQ(results.size(), grid.size());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(Sweep, EmptyGrid)
{
    const std::vector<int> grid;
    SweepOutcome outcome;
    const auto results = sweepGrid(
        grid, [](const int &v, SweepWorker &) { return v; }, quiet(4),
        &outcome);
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(outcome.points, 0u);
    EXPECT_DOUBLE_EQ(outcome.pointsPerSecond(), 0.0);
}

TEST(Sweep, JobsClampedToPoints)
{
    std::vector<int> grid{1, 2};
    SweepOutcome outcome;
    sweepGrid(grid, [](const int &v, SweepWorker &) { return v; },
              quiet(16), &outcome);
    EXPECT_EQ(outcome.jobs, 2u);
}

TEST(Sweep, MergedStatsMatchSerialAccumulation)
{
    std::vector<int> grid;
    for (int i = 1; i <= 200; ++i)
        grid.push_back(i);

    RunningStats serial;
    for (int v : grid)
        serial.add(static_cast<double>(v));

    SweepOutcome outcome;
    sweepGrid(
        grid,
        [](const int &v, SweepWorker &w) {
            w.stats.add(static_cast<double>(v));
            return v;
        },
        quiet(4), &outcome);

    EXPECT_EQ(outcome.stats.count(), serial.count());
    EXPECT_DOUBLE_EQ(outcome.stats.min(), serial.min());
    EXPECT_DOUBLE_EQ(outcome.stats.max(), serial.max());
    EXPECT_NEAR(outcome.stats.mean(), serial.mean(), 1e-9);
    EXPECT_NEAR(outcome.stats.sum(), serial.sum(), 1e-6);
    EXPECT_NEAR(outcome.stats.variance(), serial.variance(), 1e-6);
}

/** Render one model grid as CSV with the given worker count. */
std::string
modelGridCsv(unsigned jobs)
{
    struct Point
    {
        std::uint64_t tm;
        std::uint64_t b;
    };
    std::vector<Point> grid;
    for (std::uint64_t tm = 4; tm <= 32; tm += 4)
        for (std::uint64_t b : {512ull, 1024ull, 2048ull})
            grid.push_back({tm, b});

    const auto rows = sweepGrid(
        grid,
        [](const Point &g, SweepWorker &) {
            MachineParams machine = paperMachineM32();
            machine.memoryTime = g.tm;
            WorkloadParams w = paperWorkload();
            w.blockingFactor = static_cast<double>(g.b);
            const auto p = compareMachines(machine, w);
            return std::vector<std::string>{
                Table::format(g.tm), Table::format(g.b),
                Table::format(p.mm), Table::format(p.direct),
                Table::format(p.prime)};
        },
        quiet(jobs));

    Table csv({"t_m", "B", "mm", "direct", "prime"});
    for (const auto &row : rows)
        csv.addRowStrings(row);
    std::ostringstream os;
    csv.printCsv(os);
    return os.str();
}

TEST(Sweep, CsvByteIdenticalAcrossWorkerCounts)
{
    const std::string serial = modelGridCsv(1);
    EXPECT_EQ(serial, modelGridCsv(2));
    EXPECT_EQ(serial, modelGridCsv(4));
    EXPECT_EQ(serial, modelGridCsv(7));
}

TEST(Sweep, RunSweepVisitsEveryIndexOnce)
{
    constexpr std::size_t kPoints = 300;
    std::vector<int> visits(kPoints, 0);
    const auto outcome = runSweep(
        kPoints,
        [&](std::size_t i, SweepWorker &) { ++visits[i]; },
        quiet(4));
    EXPECT_EQ(outcome.points, kPoints);
    for (std::size_t i = 0; i < kPoints; ++i)
        EXPECT_EQ(visits[i], 1) << "index " << i;
}

TEST(Sweep, TelemetryReportsPerWorkerProgress)
{
    auto sink = std::make_shared<std::ostringstream>();
    SweepOptions opts = quiet(3);
    opts.label = "grid \"q\"\t";
    opts.telemetry = sink;

    std::vector<int> grid;
    for (int i = 0; i < 50; ++i)
        grid.push_back(i);
    sweepGrid(grid, [](const int &v, SweepWorker &) { return v; },
              opts);

    std::istringstream lines(sink->str());
    std::string first, line, last;
    std::getline(lines, first);
    while (std::getline(lines, line))
        last = line;

    EXPECT_NE(first.find("\"event\":\"sweep_start\""),
              std::string::npos);
    EXPECT_NE(first.find("\"points\":50"), std::string::npos);
    EXPECT_NE(first.find("\"jobs\":3"), std::string::npos);
    // Quotes and tabs in the label must arrive escaped (valid JSON
    // lines).
    EXPECT_NE(first.find("\"label\":\"grid \\\"q\\\"\\t\""),
              std::string::npos);

    ASSERT_NE(last.find("\"event\":\"sweep_end\""), std::string::npos);
    // The per-worker counts account for every point exactly once.
    const auto open = last.find("\"workers\":[");
    ASSERT_NE(open, std::string::npos);
    const auto close = last.find(']', open);
    ASSERT_NE(close, std::string::npos);
    std::istringstream counts(
        last.substr(open + 11, close - open - 11));
    std::uint64_t total = 0, value = 0;
    std::size_t workers = 0;
    char comma = 0;
    while (counts >> value) {
        total += value;
        ++workers;
        counts >> comma;
    }
    EXPECT_EQ(workers, 3u);
    EXPECT_EQ(total, 50u);
}

TEST(Sweep, NoTelemetrySinkWritesNothing)
{
    // The default options leave the sink null; this mostly checks the
    // sweep does not trip on the absent stream.
    std::vector<int> grid{1, 2, 3};
    const auto results = sweepGrid(
        grid, [](const int &v, SweepWorker &) { return v + 1; },
        quiet(2));
    EXPECT_EQ(results[2], 4);
}

TEST(SweepFlags, RoundTripThroughArgParser)
{
    ArgParser args("test");
    addSweepFlags(args);
    std::vector<std::string> storage{"prog", "--jobs=3", "--seed=99",
                                     "--progress=false"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    args.parse(static_cast<int>(argv.size()), argv.data());

    const SweepOptions opts = sweepOptionsFromFlags(args, "label");
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.seed, 99u);
    EXPECT_FALSE(opts.progress);
    EXPECT_EQ(opts.label, "label");
}

TEST(SweepFlagsDeathTest, ImplausibleJobsCountIsFatal)
{
    ArgParser args("test");
    addSweepFlags(args);
    std::vector<std::string> storage{"prog", "--jobs=1000000"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    args.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EXIT((void)sweepOptionsFromFlags(args),
                testing::ExitedWithCode(1), "out of range");
}

TEST(SweepFlags, RobustnessFlagsRoundTrip)
{
    ArgParser args("test");
    addSweepFlags(args);
    std::vector<std::string> storage{
        "prog",           "--retries=5",         "--backoff-ms=10",
        "--point-timeout=1.5", "--checkpoint=ck.jsonl", "--resume=true"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    args.parse(static_cast<int>(argv.size()), argv.data());

    const SweepOptions opts = sweepOptionsFromFlags(args, "label");
    EXPECT_EQ(opts.maxAttempts, 6u);
    EXPECT_DOUBLE_EQ(opts.backoffBaseMs, 10.0);
    EXPECT_DOUBLE_EQ(opts.pointTimeoutSeconds, 1.5);
    EXPECT_EQ(opts.checkpointPath, "ck.jsonl");
    EXPECT_TRUE(opts.resume);
    EXPECT_TRUE(opts.handleSignals);
}

TEST(SweepFlagsDeathTest, ResumeWithoutCheckpointIsFatal)
{
    ArgParser args("test");
    addSweepFlags(args);
    std::vector<std::string> storage{"prog", "--resume=true"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    args.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EXIT((void)sweepOptionsFromFlags(args),
                testing::ExitedWithCode(1),
                "--resume requires --checkpoint");
}

// ---------------------------------------------------------------------
// Robustness: per-point isolation, retries, deadlines, drain, resume.
// ---------------------------------------------------------------------

/** Make sure a test never leaks a pending drain into its neighbours. */
struct InterruptGuard
{
    InterruptGuard() { clearSweepInterrupt(); }
    ~InterruptGuard() { clearSweepInterrupt(); }
};

/** Options tuned for fast failure paths. */
SweepOptions
robust(unsigned jobs, unsigned maxAttempts)
{
    SweepOptions opts = quiet(jobs);
    opts.maxAttempts = maxAttempts;
    opts.backoffBaseMs = 1.0;
    opts.backoffMaxMs = 2.0;
    return opts;
}

TEST(SweepRobustness, ThrowingPointIsIsolatedAndRecorded)
{
    const auto outcome = runSweep(
        20,
        [](std::size_t i, SweepWorker &) {
            if (i == 7)
                throw VcError(
                    makeError(Errc::MalformedTrace, "bad point"));
        },
        robust(4, 1));

    EXPECT_EQ(outcome.completedOk, 19u);
    EXPECT_EQ(outcome.remaining, 0u);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 7u);
    EXPECT_EQ(outcome.failures[0].error.code, Errc::MalformedTrace);
    EXPECT_EQ(outcome.failures[0].attempts, 1u);
}

TEST(SweepRobustness, NonVcExceptionsAreWrappedAsInternalInvariant)
{
    const auto outcome = runSweep(
        4,
        [](std::size_t i, SweepWorker &) {
            if (i == 2)
                throw std::runtime_error("plain exception");
        },
        robust(2, 1));
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].error.code, Errc::InternalInvariant);
    EXPECT_NE(outcome.failures[0].error.message.find("plain exception"),
              std::string::npos);
}

TEST(SweepRobustness, VcFatalInsideEvaluatorBecomesPointFailure)
{
    // Inside the sweep's throwing-errors scope, vc_fatal raises a
    // VcError instead of exiting -- the whole point of the boundary.
    const auto outcome = runSweep(
        6,
        [](std::size_t i, SweepWorker &) {
            if (i == 3)
                vc_fatal("boom at point 3");
        },
        robust(2, 1));
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 3u);
    EXPECT_NE(
        outcome.failures[0].error.message.find("boom at point 3"),
        std::string::npos);
}

TEST(SweepRobustness, TransientFailureRetriesAndSucceeds)
{
    std::vector<std::atomic<unsigned>> attempts(10);
    const auto outcome = runSweep(
        10,
        [&](std::size_t i, SweepWorker &) {
            const unsigned a =
                attempts[i].fetch_add(1, std::memory_order_relaxed) + 1;
            if (i == 4 && a < 3)
                throw VcError(makeError(Errc::Io, "flaky"));
        },
        robust(4, 3));

    EXPECT_EQ(outcome.completedOk, 10u);
    EXPECT_TRUE(outcome.failures.empty());
    EXPECT_EQ(outcome.retries, 2u);
    EXPECT_EQ(attempts[4].load(), 3u);
}

TEST(SweepRobustness, ExhaustedRetriesRecordAttemptCount)
{
    const auto outcome = runSweep(
        3,
        [](std::size_t i, SweepWorker &) {
            if (i == 1)
                throw VcError(makeError(Errc::Io, "always down"));
        },
        robust(1, 3));
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].attempts, 3u);
    // Both extra attempts count as retries even though the point
    // never resolved.
    EXPECT_EQ(outcome.retries, 2u);
}

TEST(SweepRobustness, BackoffIsDeterministicJitteredAndCapped)
{
    const double a = retryBackoffMs(7, 13, 1, 100.0, 2000.0);
    EXPECT_DOUBLE_EQ(a, retryBackoffMs(7, 13, 1, 100.0, 2000.0));

    // Jitter keeps the delay within [0.5, 1.5) of nominal.
    EXPECT_GE(a, 50.0);
    EXPECT_LT(a, 150.0);
    const double second = retryBackoffMs(7, 13, 2, 100.0, 2000.0);
    EXPECT_GE(second, 100.0);
    EXPECT_LT(second, 300.0);

    // Different (seed, point, attempt) draw different jitter.
    EXPECT_NE(a, retryBackoffMs(8, 13, 1, 100.0, 2000.0));
    EXPECT_NE(a, retryBackoffMs(7, 14, 1, 100.0, 2000.0));

    // The exponential is capped at maxMs * 1.5 jitter, even for huge
    // attempt numbers (no overflow).
    const double capped = retryBackoffMs(7, 13, 64, 100.0, 2000.0);
    EXPECT_LT(capped, 3000.0);
    EXPECT_GE(capped, 1000.0);

    EXPECT_DOUBLE_EQ(retryBackoffMs(7, 13, 1, 0.0, 2000.0), 0.0);
}

TEST(SweepRobustness, WatchdogTimesOutCooperativePoint)
{
    SweepOptions opts = robust(2, 1);
    opts.pointTimeoutSeconds = 0.05;

    const auto outcome = runSweep(
        4,
        [](std::size_t i, SweepWorker &w) {
            if (i != 2)
                return;
            // A stuck point that honours the token, bounded so a
            // broken watchdog cannot hang the test suite.
            const auto give_up = std::chrono::steady_clock::now() +
                                 std::chrono::seconds(10);
            while (!w.cancel.cancelled() &&
                   std::chrono::steady_clock::now() < give_up)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            if (w.cancel.cancelled())
                throwCancelled(w.cancel);
        },
        opts);

    EXPECT_EQ(outcome.completedOk, 3u);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 2u);
    EXPECT_EQ(outcome.failures[0].error.code, Errc::Timeout);
}

TEST(SweepRobustness, InterruptDrainsInFlightAndReportsRemaining)
{
    InterruptGuard guard;
    std::atomic<std::size_t> evaluated{0};
    const auto outcome = runSweep(
        64,
        [&](std::size_t, SweepWorker &) {
            if (evaluated.fetch_add(1, std::memory_order_relaxed) == 8)
                requestSweepInterrupt();
            // Slow enough that the monitor's drain tick (100 ms) fires
            // while points are still unclaimed.
            std::this_thread::sleep_for(std::chrono::milliseconds(8));
        },
        robust(2, 1));

    EXPECT_TRUE(outcome.interrupted);
    EXPECT_GT(outcome.remaining, 0u);
    EXPECT_GT(outcome.completedOk, 0u);
    EXPECT_EQ(outcome.completedOk + outcome.failures.size() +
                  outcome.remaining,
              64u);
}

TEST(SweepRobustness, SigtermDrainsGracefully)
{
    // The real delivery path, not just the flag: with handleSignals
    // on, a raised SIGTERM must land in the sweep's own handler,
    // drain in-flight points and report the rest as remaining --
    // never kill the process.
    InterruptGuard guard;
    std::atomic<std::size_t> evaluated{0};
    SweepOptions opts = robust(2, 1);
    opts.handleSignals = true;
    const auto outcome = runSweep(
        64,
        [&](std::size_t, SweepWorker &) {
            if (evaluated.fetch_add(1, std::memory_order_relaxed) ==
                8)
                std::raise(SIGTERM);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(8));
        },
        opts);

    EXPECT_TRUE(outcome.interrupted);
    EXPECT_GT(outcome.remaining, 0u);
    EXPECT_GT(outcome.completedOk, 0u);
    EXPECT_EQ(outcome.completedOk + outcome.failures.size() +
                  outcome.remaining,
              64u);
}

TEST(SweepRobustness, InterruptSkipsFurtherRetries)
{
    InterruptGuard guard;
    std::atomic<unsigned> attempts{0};
    SweepOptions opts = robust(1, 10);
    opts.backoffBaseMs = 1.0;
    const auto outcome = runSweep(
        1,
        [&](std::size_t, SweepWorker &) {
            if (attempts.fetch_add(1, std::memory_order_relaxed) == 2)
                requestSweepInterrupt();
            throw VcError(makeError(Errc::Io, "always failing"));
        },
        opts);

    // (outcome.interrupted is racy here -- the sweep may finish
    // before the monitor's drain tick -- but the retry budget must
    // have been cut either way.)
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].attempts, 3u);
    EXPECT_LT(attempts.load(), 10u);
}

/** Deterministic grid row for the CSV/checkpoint tests. */
CsvRow
gridRow(std::size_t i)
{
    return {std::to_string(i), std::to_string(i * i)};
}

CsvRow
failedRow(const PointFailure &f)
{
    return {std::to_string(f.index), "failed"};
}

/** Temp journal path removed on scope exit. */
class TempJournal
{
  public:
    explicit TempJournal(const std::string &name)
        : p(std::string(::testing::TempDir()) + name)
    {
        std::remove(p.c_str());
    }

    ~TempJournal() { std::remove(p.c_str()); }

    const std::string &str() const { return p; }

  private:
    std::string p;
};

TEST(CsvSweep, ResumeRequiresCheckpointAsValueError)
{
    SweepOptions opts = quiet(1);
    opts.resume = true;
    const auto result = runCsvSweep(
        4, [](std::size_t i, SweepWorker &) { return gridRow(i); },
        failedRow, opts);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, Errc::InvalidConfig);
}

TEST(CsvSweep, IncompatibleJournalIsAValueError)
{
    TempJournal journal("csv_incompat.jsonl");
    SweepOptions opts = quiet(2);
    opts.checkpointPath = journal.str();
    ASSERT_TRUE(runCsvSweep(8,
                            [](std::size_t i, SweepWorker &) {
                                return gridRow(i);
                            },
                            failedRow, opts)
                    .ok());

    // Same journal, different grid size: refused, not silently wrong.
    opts.resume = true;
    const auto result = runCsvSweep(
        9, [](std::size_t i, SweepWorker &) { return gridRow(i); },
        failedRow, opts);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, Errc::InvalidConfig);
    EXPECT_NE(result.error().message.find("points"), std::string::npos);
}

TEST(CsvSweep, ErrorRowKeepsTheGridRectangular)
{
    const auto result = runCsvSweep(
        6,
        [](std::size_t i, SweepWorker &) {
            if (i == 4)
                throw VcError(makeError(Errc::Timeout, "stuck"));
            return gridRow(i);
        },
        failedRow, robust(2, 1));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().complete());
    ASSERT_EQ(result.value().rows.size(), 6u);
    EXPECT_EQ(result.value().rows[4], (CsvRow{"4", "failed"}));
    EXPECT_EQ(result.value().rows[3], gridRow(3));
}

TEST(CsvSweep, InterruptedRunResumesToByteIdenticalRows)
{
    InterruptGuard guard;
    constexpr std::size_t kPoints = 48;

    // Reference: one uninterrupted run with no journal.
    const auto full = runCsvSweep(
        kPoints,
        [](std::size_t i, SweepWorker &) { return gridRow(i); },
        failedRow, quiet(4));
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(full.value().complete());

    TempJournal journal("csv_resume.jsonl");

    // Interrupted first run: drain after a handful of points.
    {
        SweepOptions opts = quiet(2);
        opts.checkpointPath = journal.str();
        std::atomic<std::size_t> evaluated{0};
        const auto partial = runCsvSweep(
            kPoints,
            [&](std::size_t i, SweepWorker &) {
                if (evaluated.fetch_add(1,
                                        std::memory_order_relaxed) == 6)
                    requestSweepInterrupt();
                // Outlast the monitor's 100 ms drain tick so points
                // remain unclaimed when the drain lands.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(8));
                return gridRow(i);
            },
            failedRow, opts);
        ASSERT_TRUE(partial.ok());
        EXPECT_TRUE(partial.value().outcome.interrupted);
        EXPECT_FALSE(partial.value().complete());
        EXPECT_GT(partial.value().outcome.remaining, 0u);
    }
    clearSweepInterrupt();

    // Resume with a different worker count; rows must match the
    // uninterrupted reference exactly.
    SweepOptions opts = quiet(3);
    opts.checkpointPath = journal.str();
    opts.resume = true;
    const auto resumed = runCsvSweep(
        kPoints,
        [](std::size_t i, SweepWorker &) { return gridRow(i); },
        failedRow, opts);
    ASSERT_TRUE(resumed.ok());
    EXPECT_TRUE(resumed.value().complete());
    EXPECT_GT(resumed.value().skipped, 0u);
    EXPECT_LT(resumed.value().skipped, kPoints);
    EXPECT_EQ(resumed.value().rows, full.value().rows);
}

TEST(CsvSweep, ResumeOfCompleteJournalSkipsEverything)
{
    TempJournal journal("csv_skip_all.jsonl");
    SweepOptions opts = quiet(2);
    opts.checkpointPath = journal.str();

    const auto first = runCsvSweep(
        12, [](std::size_t i, SweepWorker &) { return gridRow(i); },
        failedRow, opts);
    ASSERT_TRUE(first.ok());

    std::atomic<std::size_t> evaluations{0};
    opts.resume = true;
    const auto second = runCsvSweep(
        12,
        [&](std::size_t i, SweepWorker &) {
            evaluations.fetch_add(1, std::memory_order_relaxed);
            return gridRow(i);
        },
        failedRow, opts);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().skipped, 12u);
    EXPECT_EQ(evaluations.load(), 0u);
    EXPECT_EQ(second.value().rows, first.value().rows);
}

TEST(CsvSweep, ResumeReportsJournalledDuplicates)
{
    // A crash between the journal append and the checkpoint dedup can
    // leave the same point recorded twice; resume must keep the last
    // record and surface the count instead of absorbing it silently.
    TempJournal journal("csv_dup_counter.jsonl");
    SweepOptions opts = quiet(2);
    opts.checkpointPath = journal.str();

    const auto first = runCsvSweep(
        4, [](std::size_t i, SweepWorker &) { return gridRow(i); },
        failedRow, opts);
    ASSERT_TRUE(first.ok());

    // Re-journal two points by hand, as a crashed writer would have.
    {
        std::ofstream out(journal.str(), std::ios::app);
        out << "{\"point\":1,\"status\":\"ok\",\"row\":[\"1\","
               "\"1\"]}\n"
            << "{\"point\":2,\"status\":\"ok\",\"row\":[\"2\","
               "\"4\"]}\n";
    }

    ObsRegistry registry;
    opts.resume = true;
    opts.registry = &registry;
    const auto second = runCsvSweep(
        4, [](std::size_t i, SweepWorker &) { return gridRow(i); },
        failedRow, opts);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().skipped, 4u);
    EXPECT_EQ(second.value().rows, first.value().rows);

    const Counter *dups = registry.findCounter("checkpoint.duplicates");
    ASSERT_NE(dups, nullptr);
    EXPECT_EQ(dups->value, 2u);
}

TEST(CsvSweep, FailedPointsRerunOnResume)
{
    TempJournal journal("csv_retry_failed.jsonl");
    SweepOptions opts = robust(2, 1);
    opts.checkpointPath = journal.str();

    const auto first = runCsvSweep(
        8,
        [](std::size_t i, SweepWorker &) {
            if (i == 5)
                throw VcError(makeError(Errc::Io, "transient outage"));
            return gridRow(i);
        },
        failedRow, opts);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().rows[5], (CsvRow{"5", "failed"}));

    // The outage is over; resume re-runs only the failed point.
    std::atomic<std::size_t> evaluations{0};
    opts.resume = true;
    const auto second = runCsvSweep(
        8,
        [&](std::size_t i, SweepWorker &) {
            evaluations.fetch_add(1, std::memory_order_relaxed);
            return gridRow(i);
        },
        failedRow, opts);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(evaluations.load(), 1u);
    EXPECT_EQ(second.value().skipped, 7u);
    EXPECT_EQ(second.value().rows[5], gridRow(5));
}

// ---------------------------------------------------------------------
// Batched group attempts: shared-workload groups, fallback, identity.
// ---------------------------------------------------------------------

/** Pair every even index with its successor; odds-at-end singleton. */
SweepGroups
pairGroups(std::size_t points)
{
    SweepGroups groups;
    for (std::size_t i = 0; i < points; i += 2) {
        std::vector<std::size_t> g{i};
        if (i + 1 < points)
            g.push_back(i + 1);
        groups.push_back(std::move(g));
    }
    return groups;
}

TEST(SweepBatched, GroupsCompleteEveryPointExactlyOnce)
{
    constexpr std::size_t kPoints = 21;
    std::vector<std::atomic<int>> visits(kPoints);
    const auto outcome = runSweepBatched(
        kPoints, pairGroups(kPoints),
        [&](std::size_t i, SweepWorker &) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
        },
        [&](std::span<const std::size_t> group, SweepWorker &) {
            std::vector<bool> done;
            for (std::size_t i : group) {
                visits[i].fetch_add(1, std::memory_order_relaxed);
                done.push_back(true);
            }
            return done;
        },
        quiet(4));

    EXPECT_EQ(outcome.completedOk, kPoints);
    EXPECT_TRUE(outcome.failures.empty());
    for (std::size_t i = 0; i < kPoints; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    // Ten pairs batch; the trailing singleton takes the solo path.
    EXPECT_EQ(outcome.batchedGroups, 10u);
    EXPECT_EQ(outcome.batchedPoints, 20u);
}

TEST(SweepBatched, FailedBatchFallsBackToSoloWithFullRetries)
{
    constexpr std::size_t kPoints = 8;
    std::vector<std::atomic<int>> soloRuns(kPoints);
    const auto outcome = runSweepBatched(
        kPoints, pairGroups(kPoints),
        [&](std::size_t i, SweepWorker &) {
            soloRuns[i].fetch_add(1, std::memory_order_relaxed);
        },
        [](std::span<const std::size_t> group, SweepWorker &) {
            // Complete only the first member of each pair; a short
            // vector fails the remainder back to the solo path.
            return std::vector<bool>{!group.empty()};
        },
        quiet(2));

    EXPECT_EQ(outcome.completedOk, kPoints);
    EXPECT_TRUE(outcome.failures.empty());
    for (std::size_t i = 0; i < kPoints; ++i)
        EXPECT_EQ(soloRuns[i].load(), i % 2 == 0 ? 0 : 1) << i;
    EXPECT_EQ(outcome.batchedPoints, 4u);
}

TEST(SweepBatched, ThrowingBatchDoesNotConsumeSoloAttempts)
{
    std::atomic<int> soloRuns{0};
    SweepOptions opts = robust(1, 2);
    const auto outcome = runSweepBatched(
        2, {{0, 1}},
        [&](std::size_t, SweepWorker &) {
            soloRuns.fetch_add(1, std::memory_order_relaxed);
            throw VcError(makeError(Errc::Io, "down"));
        },
        [](std::span<const std::size_t>,
           SweepWorker &) -> std::vector<bool> {
            throw VcError(makeError(Errc::Io, "batch down"));
        },
        opts);

    // Every member still got its full maxAttempts solo budget.
    EXPECT_EQ(soloRuns.load(), 4);
    EXPECT_EQ(outcome.failures.size(), 2u);
    EXPECT_EQ(outcome.batchedPoints, 0u);
}

TEST(SweepBatched, SingletonGroupsNeverCallBatchEval)
{
    std::atomic<int> batchCalls{0};
    SweepGroups singletons;
    for (std::size_t i = 0; i < 6; ++i)
        singletons.push_back({i});
    const auto outcome = runSweepBatched(
        6, singletons, [](std::size_t, SweepWorker &) {},
        [&](std::span<const std::size_t> group, SweepWorker &) {
            batchCalls.fetch_add(1, std::memory_order_relaxed);
            return std::vector<bool>(group.size(), true);
        },
        quiet(2));
    EXPECT_EQ(outcome.completedOk, 6u);
    EXPECT_EQ(batchCalls.load(), 0);
    EXPECT_EQ(outcome.batchedPoints, 0u);
}

TEST(SweepBatched, PublishesBatchCounters)
{
    ObsRegistry registry;
    SweepOptions opts = quiet(2);
    opts.registry = &registry;
    runSweepBatched(
        4, pairGroups(4), [](std::size_t, SweepWorker &) {},
        [](std::span<const std::size_t> group, SweepWorker &) {
            return std::vector<bool>(group.size(), true);
        },
        opts);
    const Counter *points = registry.findCounter("sweep.batch_points");
    ASSERT_NE(points, nullptr);
    EXPECT_EQ(points->value, 4u);
    const Counter *groups = registry.findCounter("sweep.batch_groups");
    ASSERT_NE(groups, nullptr);
    EXPECT_EQ(groups->value, 2u);
}

/** Batched row renderer agreeing with gridRow, optionally partial. */
std::vector<std::optional<CsvRow>>
batchGridRows(std::span<const std::size_t> group, SweepWorker &)
{
    std::vector<std::optional<CsvRow>> rows;
    for (std::size_t i : group)
        rows.emplace_back(gridRow(i));
    return rows;
}

TEST(CsvSweepBatched, RowsByteIdenticalToUnbatchedRun)
{
    constexpr std::size_t kPoints = 24;
    const SweepGroups groups = pairGroups(kPoints);
    const auto solo_eval = [](std::size_t i, SweepWorker &) {
        return gridRow(i);
    };

    SweepOptions batched = quiet(4);
    const auto with = runCsvSweepBatched(
        kPoints, solo_eval, batchGridRows, failedRow, groups, batched);
    ASSERT_TRUE(with.ok());
    EXPECT_GT(with.value().outcome.batchedPoints, 0u);

    const auto without =
        runCsvSweep(kPoints, solo_eval, failedRow, quiet(1));
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(without.value().outcome.batchedPoints, 0u);

    EXPECT_EQ(with.value().rows, without.value().rows);
}

TEST(CsvSweepBatched, NulloptMembersFallBackToSoloRows)
{
    const auto result = runCsvSweepBatched(
        6, [](std::size_t i, SweepWorker &) { return gridRow(i); },
        [](std::span<const std::size_t> group, SweepWorker &) {
            // Batch completes nothing; every row must still appear.
            return std::vector<std::optional<CsvRow>>(group.size());
        },
        failedRow, pairGroups(6), quiet(2));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().complete());
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(result.value().rows[i], gridRow(i));
    EXPECT_EQ(result.value().outcome.batchedPoints, 0u);
}

TEST(CsvSweepBatched, ResumeSkipsJournalledPointsInsideGroups)
{
    TempJournal journal("csv_batch_resume.jsonl");
    SweepOptions opts = quiet(2);
    opts.checkpointPath = journal.str();

    const auto first = runCsvSweepBatched(
        10, [](std::size_t i, SweepWorker &) { return gridRow(i); },
        batchGridRows, failedRow, pairGroups(10), opts);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value().complete());

    std::atomic<int> evaluations{0};
    opts.resume = true;
    const auto second = runCsvSweepBatched(
        10,
        [&](std::size_t i, SweepWorker &) {
            evaluations.fetch_add(1, std::memory_order_relaxed);
            return gridRow(i);
        },
        [&](std::span<const std::size_t> group, SweepWorker &w) {
            evaluations.fetch_add(static_cast<int>(group.size()),
                                  std::memory_order_relaxed);
            return batchGridRows(group, w);
        },
        failedRow, pairGroups(10), opts);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(evaluations.load(), 0);
    EXPECT_EQ(second.value().skipped, 10u);
    EXPECT_EQ(second.value().rows, first.value().rows);
}

} // namespace
} // namespace vcache
