/**
 * @file
 * Grid workload grid_solo: the sweep_grid surface (m in {5,6} x t_m
 * 4..64 step 4 x B 256..8192, 192 points) with per-index seeds, the
 * sweep_grid default, driven through the public sweep and evaluation
 * API pass after pass, each pass with a new base seed.  Every group is
 * a singleton, so every point takes the streamed solo evaluatePoint
 * path, and there is no journal.  Why: it bypasses gang lanes and the
 * journal and exercises the solo CC engine.
 */

#include <atomic>
#include <fstream>
#include <map>
#include <optional>

#include "bench.hh"
#include "grid.hh"
#include "replica.hh"
#include "serve/proto.hh"
#include "sim/checkpoint.hh"
#include "sim/sweep.hh"
#include "spans.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace perfbench
{

using namespace vcache;

namespace
{

constexpr unsigned kJobs = 1;

struct GridPoint
{
    unsigned bankBits;
    std::uint64_t memoryTime;
    std::uint64_t blockingFactor;
};

std::vector<GridPoint>
paperGrid()
{
    std::vector<GridPoint> grid;
    for (const unsigned bank_bits : {5u, 6u})
        for (std::uint64_t tm = 4; tm <= 64; tm += 4)
            for (std::uint64_t b = 256; b <= 8192; b *= 2)
                grid.push_back({bank_bits, tm, b});
    return grid;
}

const std::vector<std::string> kHeaders{
    "status", "banks",  "t_m",    "B",          "R",        "p_ds",
    "mm",     "cc_direct", "cc_prime", "sim_mm", "sim_direct",
    "sim_prime"};

/** Per-worker state; indexed by SweepWorker::id, so never shared. */
struct WorkerData
{
    /** Thread CPU time of each evaluator call. */
    std::vector<double> cpuMs;
    /** Wall and thread CPU time of the evaluator calls. */
    std::int64_t callNs = 0;
    std::int64_t cpuNs = 0;
    WorkCounts work;
    /** The pass's oracle sample, if this worker evaluated it. */
    std::optional<std::pair<EvalRequest, std::string>> sample;
};

/** What one pass measured. */
struct Pass
{
    std::uint64_t seed = 0;
    /** Process CPU time from the pass start to the first call. */
    std::int64_t setupCpuNs = 0;
    std::int64_t wallNs = 0;
    std::uint64_t points = 0;
    std::uint64_t failed = 0;
    std::vector<CsvRow> rows;
    /** The workers' figures, merged. */
    WorkerData calls;
    std::vector<std::pair<EvalRequest, std::string>> samples;
};

class GridRunner
{
  public:
    GridRunner() : grid(paperGrid()) {}

    /**
     * One sweep of the grid.  `traced` selects the decomposed replica
     * with spans instead of the public evaluate call, and a span around
     * the sweep call itself.
     */
    Pass
    runPass(std::uint64_t passSeed, SpanRecorder *traced,
            std::size_t sampleIndex)
    {
        for (WorkerData &w : workers)
            w = WorkerData{};
        Lane *sweepLane = traced ? traced->lane(kJobs) : nullptr;
        SpanScope passSpan(sweepLane, "sweep.pass", passSeed);
        const std::int64_t t0 = nowNs();
        const std::int64_t cpu0 = processCpuNs();
        auto reqFor = [&](std::size_t index) {
            const GridPoint &g = grid[index];
            EvalRequest req;
            req.bankBits = g.bankBits;
            req.memoryTime = g.memoryTime;
            req.blockingFactor = g.blockingFactor;
            req.pDoubleStream = 0.2;
            req.seed = passSeed + 1000003 * (index + 1);
            return req;
        };
        auto rowFor = [&](std::size_t index, const EvalRequest &req,
                          const EvalResult &s) {
            const GridPoint &g = grid[index];
            return CsvRow{"ok",
                          Table::format(std::uint64_t{1} << g.bankBits),
                          Table::format(g.memoryTime),
                          Table::format(g.blockingFactor),
                          Table::format(g.blockingFactor),
                          Table::format(req.pDoubleStream),
                          Table::format(s.modelMm),
                          Table::format(s.modelDirect),
                          Table::format(s.modelPrime),
                          Table::format(s.simMm),
                          Table::format(s.simDirect),
                          Table::format(s.simPrime)};
        };

        // Grouped by workload key, as sweep_grid groups them; with
        // per-index seeds every group is a singleton.
        SweepGroups groups;
        {
            std::map<std::string, std::size_t> group_of;
            for (std::size_t i = 0; i < grid.size(); ++i) {
                const auto [it, fresh] = group_of.try_emplace(
                    workloadKey(reqFor(i)), groups.size());
                if (fresh)
                    groups.emplace_back();
                groups[it->second].push_back(i);
            }
        }

        SweepOptions opts;
        opts.jobs = kJobs;
        opts.seed = passSeed;
        opts.progress = false;
        opts.label = "sweep_grid";

        std::atomic<std::int64_t> firstCall{0};
        std::atomic<std::int64_t> firstCallCpu{0};
        std::atomic<std::int64_t> lastLeave{0};
        const auto result = runCsvSweepBatched(
            grid.size(),
            [&](std::size_t index, SweepWorker &w) {
                std::int64_t start = nowNs();
                const std::int64_t cpuStart = threadCpuNs();
                std::int64_t unset = 0;
                if (firstCall.compare_exchange_strong(unset, start))
                    firstCallCpu = processCpuNs();
                WorkerData &data = workers[w.id];
                CsvRow row;
                {
                    Lane *lane = traced ? traced->lane(w.id) : nullptr;
                    SpanScope span(lane, "evaluate", index);
                    const EvalRequest req = reqFor(index);
                    const EvalResult r =
                        traced ? evaluateSoloTraced(req, lane, data.work)
                               : evaluatePoint(req, &w.cancel).value();
                    if (index == sampleIndex)
                        data.sample.emplace(
                            req, serve::renderResultPayload(req, r));
                    row = rowFor(index, req, r);
                }
                const std::int64_t cpuNs = threadCpuNs() - cpuStart;
                data.cpuNs += cpuNs;
                data.cpuMs.push_back(double(cpuNs) / 1e6);
                const std::int64_t now = nowNs();
                data.callNs += now - start;
                std::int64_t last = lastLeave.load();
                while (last < now &&
                       !lastLeave.compare_exchange_weak(last, now)) {
                }
                return row;
            },
            // Groups are singletons, so the sweep never batches; were
            // it to, every member falls back to the solo evaluator.
            [](std::span<const std::size_t> indices, SweepWorker &) {
                return std::vector<std::optional<CsvRow>>(indices.size());
            },
            [&](const PointFailure &f) {
                CsvRow row{"failed:" +
                           std::string(errcName(f.error.code))};
                row.resize(kHeaders.size(), "nan");
                return row;
            },
            groups, opts);
        const std::int64_t end = nowNs();
        // The sweep's own time while its workers wait on it: grid and
        // group build and pool start before the first evaluator call,
        // and the join and row collection after the last.
        const std::int64_t first = firstCall.load() ? firstCall.load() : end;
        recordSpan(sweepLane, "sweep.setup", t0, first);
        recordSpan(sweepLane, "sweep.drain", std::max(first, lastLeave.load()),
                   end);

        Pass pass;
        pass.seed = passSeed;
        pass.wallNs = end - t0;
        pass.setupCpuNs = (firstCallCpu.load() ? firstCallCpu.load()
                                               : processCpuNs()) -
                          cpu0;
        pass.points = grid.size();
        for (WorkerData &w : workers) {
            pass.calls.callNs += w.callNs;
            pass.calls.cpuNs += w.cpuNs;
            pass.calls.cpuMs.insert(pass.calls.cpuMs.end(),
                                    w.cpuMs.begin(), w.cpuMs.end());
            pass.calls.work += w.work;
            if (w.sample)
                pass.samples.push_back(*w.sample);
        }
        if (!result.ok() || !result.value().complete()) {
            pass.failed = grid.size();
            return pass;
        }
        for (const CsvRow &row : result.value().rows)
            if (row.empty() || row[0] != "ok")
                ++pass.failed;
        pass.rows = result.value().rows;
        return pass;
    }

    const std::vector<GridPoint> grid;
    WorkerData workers[kJobs];
};

/** Totals of one kind of pass (untraced or traced) over a run. */
struct Phase
{
    std::uint64_t passes = 0;
    std::uint64_t points = 0;
    std::uint64_t failed = 0;
    /** CPU times below are at the reference clock speed (bench.hh). */
    std::vector<double> setupS;
    /** Points per wall second of each pass. */
    std::vector<double> passRate;
    /** Each pass's clock_scale. */
    std::vector<double> scales;
    /** Evaluator-call CPU time, over every pass. */
    double cpuS = 0.0;
    WorkerData calls;
    std::vector<std::pair<EvalRequest, std::string>> samples;
    /** Seed and rows of the phase's first pass (the CSV check). */
    std::uint64_t firstSeed = 0;
    std::vector<CsvRow> firstRows;
    std::vector<CsvRow> lastRows;

    /**
     * Add a pass.  `scale` is kReferenceLoopNs over clockLoopNs() taken
     * right before it, so each pass is scaled by the clock speed it
     * ran at.
     */
    void
    add(Pass &&pass, double scale)
    {
        if (passes == 0) {
            firstSeed = pass.seed;
            firstRows = pass.rows;
        }
        passes += 1;
        points += pass.points;
        failed += pass.failed;
        setupS.push_back(double(pass.setupCpuNs) * scale / 1e9);
        passRate.push_back(double(pass.points) /
                           (double(pass.wallNs) / 1e9));
        scales.push_back(scale);
        cpuS += double(pass.calls.cpuNs) * scale / 1e9;
        calls.callNs += pass.calls.callNs;
        for (const double ms : pass.calls.cpuMs)
            calls.cpuMs.push_back(ms * scale);
        calls.work += pass.calls.work;
        samples.insert(samples.end(), pass.samples.begin(),
                       pass.samples.end());
        lastRows = std::move(pass.rows);
    }
};

void
writeCsv(const std::string &path, const std::vector<CsvRow> &rows)
{
    Table csv(kHeaders);
    for (const CsvRow &row : rows)
        csv.addRowStrings(row);
    std::ofstream out(path);
    csv.printCsv(out);
}

/**
 * Re-evaluate a seeded sample of the phase's points with the
 * element-wise engine and compare the rendered payloads byte for
 * byte.  Returns the number of mismatches.
 */
std::uint64_t
checkOracle(const Phase &phase, Rng &rng, std::size_t count,
            std::uint64_t &checked)
{
    std::uint64_t mismatches = 0;
    for (std::size_t n = 0; n < count && !phase.samples.empty(); ++n) {
        const auto &[req, payload] =
            phase.samples[rng.uniformInt(0, phase.samples.size() - 1)];
        EvalRequest oracle = req;
        oracle.engine = SimEngine::Scalar;
        const auto r = evaluatePoint(oracle);
        ++checked;
        if (!r.ok() || serve::renderResultPayload(req, r.value()) != payload)
            ++mismatches;
    }
    return mismatches;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
runGrid(const GridArgs &args)
{
    GridRunner runner;
    Rng rng(mix64(args.seed));
    std::uint64_t passCounter = 0;
    auto nextPass = [&](SpanRecorder *traced) {
        const std::uint64_t seed = deriveSeed(args.seed, passCounter++);
        const std::size_t sampleIndex =
            rng.uniformInt(0, runner.grid.size() - 1);
        return runner.runPass(seed, traced, sampleIndex);
    };
    JsonLine out;

    // Untimed warm-up pass: thread stacks, allocator arenas and page
    // faults settle before anything is measured.
    nextPass(nullptr);

    // A traced run alternates untraced and traced passes, so that host
    // drift falls on both alike and trace.overhead_ratio measures the
    // spans and the replica, not the host.
    SpanRecorder recorder(kJobs + 1);
    if (args.trace)
        for (unsigned i = 0; i < recorder.laneCount(); ++i)
            recorder.lane(i)->spans.reserve(1 << 18);
    Phase plain, traced;
    const std::int64_t end = nowNs() + std::int64_t(args.seconds * 1e9);
    do {
        const double scale = kReferenceLoopNs / clockLoopNs();
        plain.add(nextPass(nullptr), scale);
        // Traced passes report no CPU figures.
        if (args.trace)
            traced.add(nextPass(&recorder), 1.0);
    } while (nowNs() < end);
    out.num("rss_peak_mb", peakRssMiB());

    std::uint64_t attempted = plain.points;
    std::uint64_t failed = plain.failed;
    std::uint64_t checked = 0;
    failed += checkOracle(plain, rng, 6, checked);
    writeCsv(args.workDir + "/untraced_pass.csv", plain.firstRows);
    out.integer("csv_untraced_seed", plain.firstSeed);

    // Every figure but the wall rate is CPU time, which leaves out the
    // time a neighbour takes the core away, at the reference clock
    // speed, which leaves out the core's own speed changes.
    out.num("clock_scale", quantile(plain.scales, 0.5));
    out.num("ops_per_cpu_s", ratio(double(plain.points), plain.cpuS));
    out.num("ops_per_s", quantile(plain.passRate, 0.5));
    out.num("setup_s", quantile(plain.setupS, 0.5));
    out.num("lat_p50_cpu_ms", quantile(plain.calls.cpuMs, 0.5));
    out.num("lat_p99_cpu_ms", quantile(plain.calls.cpuMs, 0.99));
    out.num("lat_samples", double(plain.calls.cpuMs.size()));
    out.num("passes", double(plain.passes));

    if (args.trace) {
        attempted += traced.points;
        failed += traced.failed;
        failed += checkOracle(traced, rng, 4, checked);
        writeCsv(args.workDir + "/traced_pass.csv", traced.firstRows);
        out.integer("csv_traced_seed", traced.firstSeed);

        // The journal layer, timed on CheckpointWriter itself: append
        // the last pass's rows the way a --checkpoint sweep journals
        // them.
        Lane *lane = recorder.lane(kJobs);
        for (int rep = 0; rep < 4; ++rep) {
            auto writer = CheckpointWriter::open(
                args.workDir + "/append.jsonl",
                {"sweep_grid", runner.grid.size(), args.seed}, false);
            if (!writer.ok()) {
                ++failed;
                break;
            }
            for (std::size_t i = 0; i < traced.lastRows.size(); ++i) {
                SpanScope span(lane, "checkpoint.append", i);
                if (!writer.value()->recordDone(i, traced.lastRows[i]).ok())
                    ++failed;
            }
        }

        const auto totals = recorder.totals();
        auto total = [&](const char *name) {
            const auto it = totals.find(name);
            return it == totals.end() ? 0.0 : double(it->second.totalNs);
        };
        const double evalNs = total("evaluate");
        const double sweepNs = total("sweep.setup") + total("sweep.drain");
        // Worker time: every worker for the length of every pass span.
        const double workerNs = double(kJobs) * total("sweep.pass");
        // Grid shares are of evaluator time; the sweep has busy_ratio.
        reportEvaluationLayers(out, totals, traced.calls.work, evalNs);
        out.num("sweep.busy_ratio", ratio(evalNs, workerNs));
        out.num("sweep.self_ms", sweepNs / 1e6 / double(traced.passes));
        if (const auto it = totals.find("checkpoint.append");
            it != totals.end())
            out.num("checkpoint.append_us",
                    double(it->second.selfNs) / 1e3 /
                        double(it->second.count));
        // What the spans explain of the worker time: the evaluator
        // spans (every evaluation layer inside them), and the sweep's
        // set-up and drain spans, during which the workers wait.  The
        // rest is dispatch between calls and idle tail that no span
        // covers.
        out.num("ledger.unexplained_ratio",
                1.0 - ratio(evalNs + kJobs * sweepNs, workerNs));
        out.num("trace.overhead_ratio",
                ratio(evalNs / double(traced.points),
                      double(plain.calls.callNs) / double(plain.points)) -
                    1.0);
        if (!recorder.writeChromeTrace(args.workDir + "/trace.json",
                                       {"sweep worker", "sweep and journal"},
                                       60000))
            ++failed;
    }

    out.num("oracle_checked", double(checked));
    out.num("attempted", double(attempted));
    out.num("failed", double(failed));
    std::printf("%s\n", out.render().c_str());
    return 0;
}

} // namespace perfbench
