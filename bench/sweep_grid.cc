/**
 * @file
 * Full model/sim grid as CSV: every (banks, t_m, B) point for the
 * paper machines, ready for external plotting of Figures 4-8
 * (gnuplot, matplotlib, a spreadsheet).  The other fig* binaries
 * print the paper's specific slices; this one dumps the whole
 * surface, and optionally validates each point with the trace-driven
 * simulators (--sim).
 *
 * Points are evaluated by the fault-tolerant sweep engine: --jobs
 * fans them out, --checkpoint/--resume journal completed rows so an
 * interrupted run picks up where it left off, --retries/--point-
 * timeout bound a flaky or stuck point, and a permanently failed
 * point becomes a CSV row with status=failed instead of sinking the
 * sweep.  The CSV on stdout is byte-identical for every worker count
 * (and across an interrupt/resume cycle) because rows are collected
 * by grid index and every per-point seed derives from --seed and the
 * grid index, never from the worker.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hh"
#include "core/defaults.hh"
#include "obs/forensics.hh"
#include "sim/cc_sim.hh"
#include "sim/evaluate.hh"
#include "sim/sweep.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace
{

using namespace vcache;

/** One grid point of the swept surface. */
struct GridPoint
{
    unsigned bankBits;
    std::uint64_t memoryTime;
    std::uint64_t blockingFactor;
};

/** 3C/reuse forensics of one grid point (--forensics columns). */
struct ForensicsPoint
{
    MissBreakdown direct;
    MissBreakdown prime;
    std::uint64_t reuseP50;
    std::uint64_t reuseP99;
};

/**
 * Rerun one point's CC workload under the 3C classifier on both
 * mapping schemes.  Always element-wise scalar (enabled observers
 * force it), so this is the slow lane the --forensics flag gates.
 */
ForensicsPoint
classifyPoint(const MachineParams &machine, std::uint64_t b,
              double p_ds, std::uint64_t seed)
{
    VcmParams p;
    p.blockingFactor = b;
    p.reuseFactor = 8;
    p.pDoubleStream = p_ds;
    p.blocks = 2;
    p.maxStride = 8192;

    ForensicsConfig config;
    config.reuseProfile = true;

    ForensicsPoint out{};
    {
        ClassifyingObserver obs("cc_direct", config);
        VcmTraceSource source(p, seed);
        CcSimulator sim(machine, CacheScheme::Direct);
        sim.run(source, obs);
        out.direct = obs.breakdown();
        // Reuse distances are a property of the access stream, not
        // the mapping: one scheme's profile serves the point.
        out.reuseP50 = obs.reuse().percentile(0.50);
        out.reuseP99 = obs.reuse().percentile(0.99);
    }
    {
        ClassifyingObserver obs("cc_prime", config);
        VcmTraceSource source(p, seed);
        CcSimulator sim(machine, CacheScheme::Prime);
        sim.run(source, obs);
        out.prime = obs.breakdown();
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Dump the full (banks, t_m, B) model grid as CSV; "
                   "--sim adds trace-driven simulator columns.");
    addSweepFlags(args);
    addObsFlags(args);
    args.addFlag("sim", "true",
                 "also run the MM/CC simulators at every point");
    args.addFlag("engine", "auto",
                 "simulator engine: auto (gang probes, run-batched "
                 "fast-forward and shared-trace gang lanes), scalar "
                 "(the element-wise oracle, every point alone; the CSV "
                 "is byte-identical to auto) or sampled (SMARTS-style "
                 "statistical sampling; adds *_ci half-width columns)");
    args.addFlag("target-ci", "0.03",
                 "sampled engine only: target relative 95% CI "
                 "half-width before sampling stops");
    args.addFlag("forensics", "false",
                 "classify every point's misses (3C, per scheme) and "
                 "profile reuse distances; adds direct_*/prime_* and "
                 "reuse_p50/p99 columns (element-wise replay: slow)");
    args.addFlag("max-points", "0",
                 "evaluate only the first N grid points (0 = all); "
                 "keeps --forensics CI runs small");
    args.addFlag("shared-seed", "false",
                 "draw every grid point's trace from --seed directly "
                 "instead of folding in the grid index, so points "
                 "differing only in t_m share a workload and batch "
                 "into one trace pass");
    args.parse(argc, argv);
    SweepOptions opts = sweepOptionsFromFlags(args, "sweep_grid");
    const bool sim = args.getBool("sim");
    const auto engine = parseSimEngine(args.getString("engine"));
    if (!engine)
        vc_fatal("unknown --engine (expected auto, scalar or "
                 "sampled): " + args.getString("engine"));
    const bool sampled = *engine == SimEngine::Sampled;
    const double target_ci = args.getDouble("target-ci");
    const bool forensics = args.getBool("forensics");
    const std::uint64_t max_points = args.getUint("max-points");
    const bool shared_seed = args.getBool("shared-seed");

    // The engine publishes sweep.points_ok / sweep.points_failed /
    // sweep.point_retries / sweep.interrupted here; the ObsSession
    // appends them to --stats-out after the observer lanes.
    ObsRegistry sweep_registry;
    opts.registry = &sweep_registry;

    std::vector<GridPoint> grid;
    for (const unsigned bank_bits : {5u, 6u})
        for (std::uint64_t tm = 4; tm <= 64; tm += 4)
            for (std::uint64_t b = 256; b <= 8192; b *= 2)
                grid.push_back({bank_bits, tm, b});
    if (max_points != 0 && grid.size() > max_points)
        grid.resize(max_points);

    std::vector<std::string> headers{"status", "banks",     "t_m",
                                     "B",      "R",         "p_ds",
                                     "mm",     "cc_direct", "cc_prime"};
    if (sim) {
        headers.insert(headers.end(),
                       {"sim_mm", "sim_direct", "sim_prime"});
        if (sampled) {
            headers.insert(headers.end(),
                           {"mm_ci", "cc_direct_ci", "cc_prime_ci"});
        }
        if (forensics) {
            headers.insert(
                headers.end(),
                {"direct_compulsory", "direct_capacity",
                 "direct_conflict", "prime_compulsory",
                 "prime_capacity", "prime_conflict", "reuse_p50",
                 "reuse_p99"});
        }
    }
    const std::size_t columns = headers.size();
    Table csv(headers);

    auto reqFor = [&](std::size_t index) {
        const GridPoint &g = grid[index];
        EvalRequest req;
        req.bankBits = g.bankBits;
        req.memoryTime = g.memoryTime;
        req.blockingFactor = g.blockingFactor;
        req.pDoubleStream = paperWorkload().pDoubleStream;
        req.sim = sim;
        req.engine = *engine;
        req.targetCi = target_ci;
        // Per-point seed: a function of --seed and the grid position
        // only, so the draw never depends on which worker ran the
        // point.  --shared-seed drops the index fold so points that
        // differ only in t_m share a workload (and can batch).
        req.seed = shared_seed ? opts.seed
                               : opts.seed + 1000003 * (index + 1);
        return req;
    };

    // Rendered from the EvalResult alone, so a batched and a solo
    // evaluation of the same point produce the same bytes.
    auto rowFor = [&](std::size_t index, const EvalRequest &req,
                      const EvalResult &s) {
        const GridPoint &g = grid[index];
        CsvRow row{"ok",
                   Table::format(std::uint64_t{1} << g.bankBits),
                   Table::format(g.memoryTime),
                   Table::format(g.blockingFactor),
                   Table::format(g.blockingFactor),
                   Table::format(req.pDoubleStream),
                   Table::format(s.modelMm),
                   Table::format(s.modelDirect),
                   Table::format(s.modelPrime)};
        if (sim) {
            row.push_back(Table::format(s.simMm));
            row.push_back(Table::format(s.simDirect));
            row.push_back(Table::format(s.simPrime));
            if (sampled) {
                row.push_back(Table::format(s.mmCi));
                row.push_back(Table::format(s.directCi));
                row.push_back(Table::format(s.primeCi));
            }
            if (forensics) {
                const auto f = classifyPoint(evalMachine(req),
                                             g.blockingFactor,
                                             req.pDoubleStream,
                                             req.seed);
                row.push_back(Table::format(f.direct.compulsory));
                row.push_back(Table::format(f.direct.capacity));
                row.push_back(Table::format(f.direct.conflict));
                row.push_back(Table::format(f.prime.compulsory));
                row.push_back(Table::format(f.prime.capacity));
                row.push_back(Table::format(f.prime.conflict));
                row.push_back(Table::format(f.reuseP50));
                row.push_back(Table::format(f.reuseP99));
            }
        }
        return row;
    };

    // Shared-workload groups: points whose requests replay the same
    // op stream batch into one trace pass.  The map is keyed by the
    // workload identity, so with per-index seeds every group is a
    // singleton and the sweep engine takes the solo path throughout.
    SweepGroups groups;
    {
        std::map<std::string, std::size_t> group_of;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const std::string key = workloadKey(reqFor(i));
            const auto [it, fresh] =
                group_of.try_emplace(key, groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }

    const auto result = runCsvSweepBatched(
        grid.size(),
        [&](std::size_t index, SweepWorker &w) {
            const EvalRequest req = reqFor(index);
            // .value() rethrows evaluation errors as VcError, which
            // the sweep boundary turns into retries / a failed row.
            const EvalResult s = evaluatePoint(req, &w.cancel).value();
            return rowFor(index, req, s);
        },
        [&](std::span<const std::size_t> indices, SweepWorker &w) {
            std::vector<EvalRequest> reqs;
            reqs.reserve(indices.size());
            for (const std::size_t index : indices)
                reqs.push_back(reqFor(index));
            const auto evaluated =
                evaluateBatch(reqs, {}, &w.cancel);
            std::vector<std::optional<CsvRow>> rows(indices.size());
            for (std::size_t k = 0; k < indices.size(); ++k) {
                if (evaluated[k].ok())
                    rows[k] = rowFor(indices[k], reqs[k],
                                     evaluated[k].value());
            }
            return rows;
        },
        [&](const PointFailure &f) {
            // Keep the CSV rectangular: the grid coordinates are
            // always known, the measured columns become the error
            // code.
            const GridPoint &g = grid[f.index];
            CsvRow row{"failed:" + std::string(errcName(f.error.code)),
                       Table::format(std::uint64_t{1} << g.bankBits),
                       Table::format(g.memoryTime),
                       Table::format(g.blockingFactor),
                       Table::format(g.blockingFactor)};
            row.resize(columns, "nan");
            return row;
        },
        groups, opts);
    if (!result.ok())
        vc_fatal(result.error().describe());

    const SweepOutcome &outcome = result.value().outcome;
    if (result.value().complete()) {
        for (const auto &row : result.value().rows)
            csv.addRowStrings(row);
        csv.printCsv(std::cout);
    } else {
        inform(result.value().outcome.interrupted
                   ? "sweep interrupted -- CSV withheld (resume with "
                     "--checkpoint/--resume to finish the grid)"
                   : "sweep incomplete -- CSV withheld");
    }

    // Summarise the model speedup from the final rows, not a
    // per-attempt accumulator: a point that failed and retried, or
    // was replayed from the checkpoint on --resume, contributes
    // exactly once, so the summary matches across retry and
    // interrupt/resume cycles.
    RunningStats speedup;
    for (const auto &row : result.value().rows) {
        if (row.size() < columns || row[0] != "ok")
            continue;
        // Columns 7/8 are cc_direct/cc_prime (see `headers`).
        const double direct = std::strtod(row[7].c_str(), nullptr);
        const double prime = std::strtod(row[8].c_str(), nullptr);
        if (prime > 0.0)
            speedup.add(direct / prime);
    }
    if (speedup.count() > 0) {
        inform("model prime-over-direct speedup across the grid: "
               "mean ",
               Table::format(speedup.mean()), ", min ",
               Table::format(speedup.min()), ", max ",
               Table::format(speedup.max()));
    }

    // Instrumented postlude: one representative traced point of the
    // surface (paper machine, largest default B) on both schemes.
    ObsSession session(obsOptionsFromFlags(args));
    session.addRegistry(&sweep_registry);
    if (session.enabled() && result.value().complete()) {
        VcmParams p;
        p.blockingFactor = 2048;
        p.reuseFactor = 8;
        p.pDoubleStream = 0.2;
        p.blocks = 2;
        p.maxStride = 8192;
        observeSchemes(session, paperMachineM64(),
                       generateVcmTrace(p, opts.seed), forensics);
    }
    return outcome.interrupted ? 130 : 0;
}
