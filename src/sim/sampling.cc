#include "sim/sampling.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>

#include "obs/observer.hh"
#include "sim/cc_sim.hh"
#include "sim/cc_walker.hh"
#include "sim/checkpoint.hh"
#include "sim/mm_sim.hh"
#include "trace/source.hh"
#include "util/flat_hash.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/stats.hh"
#include "util/threadpool.hh"

namespace vcache
{

namespace
{

/** Live-points measured per thread-pool flush (bounds blob memory). */
constexpr std::size_t kMeasureChunk = 64;

/** What one measured unit contributes to the estimator. */
struct UnitResult
{
    /** Elements produced by the measurement window. */
    std::uint64_t x = 0;
    /** Cycles from unit begin to unit end (warming prefix excluded). */
    std::uint64_t y = 0;
    /** The window's detailed results (totalCycles rewritten to y). */
    SimResult window;
};

/** Throw the error out of a `try` region (caught at the API edge). */
void
require(const Expected<void> &e)
{
    if (!e.ok())
        throw VcError(e.error());
}

Expected<void>
validateOptions(const SamplingOptions &opts)
{
    if (opts.unitElements == 0)
        return makeError(Errc::InvalidConfig,
                         "sampling unitElements must be at least 1");
    if (opts.initialUnits == 0)
        return makeError(Errc::InvalidConfig,
                         "sampling initialUnits must be at least 1");
    if (!(opts.targetRelativeCi > 0.0))
        return makeError(Errc::InvalidConfig,
                         "sampling targetRelativeCi must be positive");
    if (!(opts.confidence > 0.0 && opts.confidence < 1.0))
        return makeError(Errc::InvalidConfig,
                         "sampling confidence must be in (0, 1)");
    if (opts.minRelativeCi < 0.0)
        return makeError(Errc::InvalidConfig,
                         "sampling minRelativeCi must be >= 0");
    return Expected<void>{};
}

/**
 * Largest power-of-two systematic stride that still samples about
 * `initial_units` of the `total` units.  Powers of two keep the
 * sample sets nested across auto-tune halvings.
 */
std::uint64_t
initialStride(std::uint64_t total, std::uint64_t initial_units)
{
    const std::uint64_t budget =
        total >= initial_units ? total / initial_units : 1;
    std::uint64_t k = 1;
    while (k * 2 <= budget)
        k *= 2;
    return k;
}

/**
 * Ratio-estimator confidence interval over the measured units (in
 * unit order, so the arithmetic is identical whatever worker count
 * produced them).  Finite-population-corrected Student-t half-width,
 * floored at minRelativeCi as the non-sampling-bias allowance.
 */
void
computeCi(const std::vector<std::optional<UnitResult>> &results,
          const SamplingOptions &opts, SamplingEstimate &est)
{
    double sum_x = 0.0;
    double sum_y = 0.0;
    std::uint64_t n = 0;
    for (const auto &r : results) {
        if (!r)
            continue;
        sum_x += static_cast<double>(r->x);
        sum_y += static_cast<double>(r->y);
        ++n;
    }
    const std::uint64_t big_n = results.size();
    est.unitsMeasured = n;
    est.elementsMeasured = static_cast<std::uint64_t>(sum_x);
    if (n == 0 || sum_x <= 0.0)
        return;

    const double ratio = sum_y / sum_x;
    est.cyclesPerElement = ratio;

    double half = 0.0;
    // One lone unit says nothing about spread -- unless it was the
    // whole population.
    const bool enough = n >= 2 || n == big_n;
    if (n >= 2 && n < big_n) {
        double ss = 0.0;
        for (const auto &r : results) {
            if (!r)
                continue;
            const double d = static_cast<double>(r->y) -
                             ratio * static_cast<double>(r->x);
            ss += d * d;
        }
        const double nn = static_cast<double>(n);
        const double s2 = ss / (nn - 1.0);
        const double fpc = 1.0 - nn / static_cast<double>(big_n);
        const double xbar = sum_x / nn;
        const double se = std::sqrt(fpc * s2 / nn) / xbar;
        half =
            studentTQuantile(0.5 + opts.confidence / 2.0, n - 1) * se;
    }
    half = std::max(half, opts.minRelativeCi * ratio);
    est.ciHalfWidth = half;
    est.relativeCi = ratio > 0.0 ? half / ratio : 0.0;
    est.ciMet = enough && est.relativeCi <= opts.targetRelativeCi;
}

/**
 * Run `measure` over every pending live-point, inline for jobs <= 1
 * or sharded over a worker pool.  `measure(lp, worker)` gets the
 * executing worker's index so the caller can keep per-worker scratch
 * simulators; each measurement is a pure function of its live-point
 * (the scratch simulator is reset first), and results land in
 * per-unit slots, so the estimate is bit-identical whatever the
 * worker count; the first error in submission (unit) order wins for
 * the same reason.
 */
template <typename Measure>
Expected<void>
measurePoints(std::vector<LivePoint> &points, unsigned jobs,
              std::vector<std::optional<UnitResult>> &results,
              const Measure &measure)
{
    if (points.empty())
        return Expected<void>{};
    if (jobs <= 1 || points.size() == 1) {
        for (const LivePoint &lp : points) {
            try {
                results[lp.unit] = measure(lp, 0);
            } catch (const VcError &e) {
                points.clear();
                return e.error();
            }
        }
        points.clear();
        return Expected<void>{};
    }

    std::vector<std::optional<Error>> errors(points.size());
    {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < points.size(); ++i) {
            pool.submit([&, i](unsigned worker) {
                // The pool has no exception transport; errors come
                // back as values, like the sweep workers'.
                try {
                    results[points[i].unit] =
                        measure(points[i], worker);
                } catch (const VcError &e) {
                    errors[i] = e.error();
                }
            });
        }
        pool.wait();
    }
    points.clear();
    for (auto &err : errors)
        if (err)
            return *err;
    return Expected<void>{};
}

/** Inclusive line-address interval one vector stream covers. */
struct LineRange
{
    Addr lo;
    Addr hi;
};

void
appendStreamRange(const AddressLayout &layout, const VectorRef &ref,
                  std::uint64_t length, std::vector<LineRange> &out)
{
    if (length == 0)
        return;
    const Addr first = ref.element(0);
    const Addr last = ref.element(length - 1);
    out.push_back({layout.lineAddress(std::min(first, last)),
                   layout.lineAddress(std::max(first, last))});
}

/** Line intervals the loads of ops [begin, end) can touch. */
std::vector<LineRange>
windowLineRanges(const AddressLayout &layout, const Trace &trace,
                 std::size_t begin, std::size_t end)
{
    std::vector<LineRange> ranges;
    for (std::size_t i = begin; i < end; ++i) {
        const VectorOp &op = trace[i];
        appendStreamRange(layout, op.first, op.first.length, ranges);
        if (op.second)
            appendStreamRange(
                layout, *op.second,
                std::min(op.second->length, op.first.length), ranges);
    }
    return ranges;
}

/**
 * Detailed measurement of one CC live-point.  The simulator is a
 * per-worker scratch object (constructing one per unit would allocate
 * a cache-sized frame vector per unit); reset() restores it to the
 * fresh state, so the result is a pure function of the live-point.
 */
UnitResult
measureCcPoint(CcSimulator &sim, const Trace &trace,
               const LivePoint &lp)
{
    sim.reset();
    vc_assert(sim.restoreCacheState(lp.cacheState),
              "live-point cache snapshot does not fit the configured "
              "cache");
    sim.seedTouchedLines(lp.prewarmedLines);

    Cycles warmed = 0;
    if (lp.captureOp < lp.unitBegin) {
        TraceSliceSource prefix(trace, lp.captureOp, lp.unitBegin);
        warmed = sim.run(prefix).totalCycles;
    }
    TraceSliceSource window(trace, lp.unitBegin, lp.unitEnd);
    const SimResult r = sim.run(window);

    UnitResult out;
    out.x = r.results;
    out.y = r.totalCycles - warmed; // the clock persists across runs
    out.window = r;
    out.window.totalCycles = out.y;
    return out;
}

/** Detailed measurement of one MM unit (no cache state to restore). */
UnitResult
measureMmPoint(MmSimulator &sim, const Trace &trace,
               const LivePoint &lp)
{
    sim.reset();

    Cycles warmed = 0;
    if (lp.captureOp < lp.unitBegin) {
        TraceSliceSource prefix(trace, lp.captureOp, lp.unitBegin);
        warmed = sim.run(prefix).totalCycles;
    }
    TraceSliceSource window(trace, lp.unitBegin, lp.unitEnd);
    const SimResult r = sim.run(window);

    UnitResult out;
    out.x = r.results;
    out.y = r.totalCycles - warmed;
    out.window = r;
    out.window.totalCycles = out.y;
    return out;
}

void
sumWindow(const UnitResult &r, SimResult &total)
{
    total.totalCycles += r.window.totalCycles;
    total.stallCycles += r.window.stallCycles;
    total.results += r.window.results;
    total.hits += r.window.hits;
    total.misses += r.window.misses;
    total.compulsoryMisses += r.window.compulsoryMisses;
}

void
publishCounters(const SamplingEstimate &est, ObsRegistry *registry)
{
    if (!registry)
        return;
    registry->counter("sampling.units_total",
                      "measurement units the trace splits into") +=
        est.unitsTotal;
    registry->counter("sampling.units_measured",
                      "units simulated in detail") += est.unitsMeasured;
    registry->counter("sampling.units_skipped",
                      "units never simulated in detail") +=
        est.unitsTotal - est.unitsMeasured;
    registry->counter("sampling.rounds",
                      "auto-tune rounds until the CI target or trace "
                      "exhaustion") += est.rounds;
    registry->counter("sampling.warming_ppm",
                      "elements the functional warmer walked or filled "
                      "cold, rather than answered in closed form or "
                      "replayed from its run memo, ppm of the trace") +=
        static_cast<std::uint64_t>(est.warmingFraction * 1e6);
    registry->counter("sampling.achieved_ci_ppm",
                      "final relative CI half-width, ppm") +=
        static_cast<std::uint64_t>(est.relativeCi * 1e6);
    registry->counter("sampling.ci_met",
                      "1 when the target relative CI was reached") +=
        est.ciMet ? 1 : 0;
}

std::size_t
captureOpOf(const SamplingUnit &unit, std::uint64_t warmup_ops)
{
    return unit.opBegin -
           std::min<std::size_t>(unit.opBegin, warmup_ops);
}

/** Units of the stride-k systematic sample not yet measured. */
std::vector<std::uint64_t>
newSampleUnits(std::uint64_t total, std::uint64_t k,
               std::uint64_t offset,
               const std::vector<std::optional<UnitResult>> &results)
{
    std::vector<std::uint64_t> fresh;
    for (std::uint64_t u = offset % k; u < total; u += k)
        if (!results[u])
            fresh.push_back(u);
    return fresh;
}

Expected<std::uint64_t>
parseWord(const std::string &text)
{
    std::uint64_t value = 0;
    if (parseWhole(text, value) != ParseStatus::Ok)
        return makeError(Errc::MalformedTrace,
                         "live-point field '" + text +
                             "' is not an unsigned integer");
    return value;
}

} // namespace

std::vector<SamplingUnit>
partitionUnits(const Trace &trace, std::uint64_t unit_elements)
{
    std::vector<SamplingUnit> units;
    SamplingUnit current;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        current.elements += trace[i].first.length;
        current.opEnd = i + 1;
        if (current.elements >= unit_elements) {
            units.push_back(current);
            current = SamplingUnit{i + 1, i + 1, 0};
        }
    }
    if (current.opEnd > current.opBegin)
        units.push_back(current);
    return units;
}

std::vector<std::string>
encodeLivePoint(const LivePoint &lp)
{
    std::vector<std::string> row;
    row.reserve(4 + lp.cacheState.size() + lp.prewarmedLines.size());
    row.push_back(std::to_string(lp.captureOp));
    row.push_back(std::to_string(lp.unitBegin));
    row.push_back(std::to_string(lp.unitEnd));
    row.push_back(std::to_string(lp.cacheState.size()));
    for (std::uint64_t w : lp.cacheState)
        row.push_back(std::to_string(w));
    for (Addr line : lp.prewarmedLines)
        row.push_back(std::to_string(line));
    return row;
}

Expected<LivePoint>
decodeLivePoint(std::uint64_t unit, const std::vector<std::string> &row)
{
    if (row.size() < 4)
        return makeError(Errc::MalformedTrace,
                         "live-point row needs at least 4 fields, "
                         "got " + std::to_string(row.size()));
    LivePoint lp;
    lp.unit = unit;
    std::uint64_t head[4];
    for (std::size_t i = 0; i < 4; ++i) {
        const Expected<std::uint64_t> v = parseWord(row[i]);
        if (!v.ok())
            return v.error();
        head[i] = v.value();
    }
    lp.captureOp = head[0];
    lp.unitBegin = head[1];
    lp.unitEnd = head[2];
    const std::uint64_t words = head[3];
    if (row.size() < 4 + words)
        return makeError(Errc::MalformedTrace,
                         "live-point row truncated: expected " +
                             std::to_string(words) +
                             " cache words, row has " +
                             std::to_string(row.size() - 4) +
                             " fields left");
    lp.cacheState.reserve(words);
    lp.prewarmedLines.reserve(row.size() - 4 - words);
    for (std::size_t i = 4; i < row.size(); ++i) {
        const Expected<std::uint64_t> v = parseWord(row[i]);
        if (!v.ok())
            return v.error();
        if (i < 4 + words)
            lp.cacheState.push_back(v.value());
        else
            lp.prewarmedLines.push_back(static_cast<Addr>(v.value()));
    }
    return lp;
}

Expected<SamplingEstimate>
sampleCc(const MachineParams &machine, const CacheConfig &cache_config,
         const Trace &trace, const SamplingOptions &opts)
{
    if (const Expected<void> v = validateOptions(opts); !v.ok())
        return v.error();
    if (trace.empty())
        return makeError(Errc::InvalidConfig,
                         "cannot sample an empty trace");

    const std::vector<SamplingUnit> units =
        partitionUnits(trace, opts.unitElements);
    const std::uint64_t total = units.size();

    SamplingEstimate est;
    est.unitsTotal = total;
    for (const SamplingUnit &u : units)
        est.elementsTotal += u.elements;

    std::unique_ptr<CheckpointWriter> journal;
    if (!opts.livePointJournal.empty()) {
        auto opened = CheckpointWriter::open(
            opts.livePointJournal, {"live_points", total, opts.seed},
            false);
        if (!opened.ok())
            return opened.error();
        journal = std::move(opened.value());
    }

    std::uint64_t k = initialStride(total, opts.initialUnits);
    const std::uint64_t offset = opts.seed % k;
    std::vector<std::optional<UnitResult>> results(total);
    double prev_ratio = 0.0;
    bool have_prev = false;

    // The functional warmer's cache and the per-worker scratch
    // simulators live across rounds and units: both are cache-sized
    // allocations, far too heavy to recreate per unit.  The cache
    // config is validated here because the simulator constructor
    // (deliberately) fatals on a bad one.
    Expected<std::unique_ptr<Cache>> cache_or =
        tryMakeCache(cache_config);
    if (!cache_or.ok())
        return cache_or.error();
    const std::unique_ptr<Cache> cache = std::move(cache_or.value());
    const AddressLayout &layout = cache->addressLayout();
    // The lines the functional pass has brought in: a set for the
    // walker's first-touch test, plus the same lines in first-touch
    // order.  The set is reserved once here for the trace's read
    // footprint (each round's clear() keeps the capacity), so early in
    // the walk its slots are mostly empty; each live-point capture
    // scans the dense order instead.
    FirstTouchSet touched;
    touched.reserve(readFootprintBound(trace));
    std::vector<Addr> touch_order;
    const CcWalkOptions walk_opts{.mvl = machine.mvl, .fastPaths = true};

    std::vector<std::unique_ptr<CcSimulator>> sims;
    for (unsigned w = 0; w < std::max(opts.jobs, 1u); ++w) {
        auto sim = std::make_unique<CcSimulator>(machine, cache_config);
        // The windows run Auto: the gang probe pays off even in a
        // two-op window, and a solo walk does not try the memo's
        // certification before an op's third walk (see
        // CcWalker::certify).
        sim->setNonBlockingMisses(opts.nonBlocking);
        sim->setCancelToken(opts.cancel);
        sims.push_back(std::move(sim));
    }
    const auto measure = [&](const LivePoint &lp, unsigned worker) {
        return measureCcPoint(*sims[worker], trace, lp);
    };
    try {
        for (;;) {
            ++est.rounds;
            const std::vector<std::uint64_t> fresh =
                newSampleUnits(total, k, offset, results);

            // One functional pass over the whole trace -- the walker
            // with zero timing lanes -- capturing a live-point for
            // every fresh unit at its op boundary.  The pass is
            // deterministic, so units captured in earlier rounds are
            // simply not re-captured.
            cache->reset();
            touched.clear();
            touch_order.clear();
            std::vector<LivePoint> pending;
            std::size_t next_fresh = 0;
            std::uint64_t walked = 0;

            withConcreteCache(*cache, [&](auto &concrete) {
                NullObserver obs;
                CcWalker<std::remove_reference_t<decltype(concrete)>,
                         LaneCount::Zero, NullObserver>
                    walker(concrete, touched, {}, walk_opts, obs);
                walker.firstTouchOrder = &touch_order;
                for (std::size_t op_idx = 0; op_idx < trace.size();
                     ++op_idx) {
                    if (opts.cancel && opts.cancel->cancelled())
                        throwCancelled(*opts.cancel);
                    while (next_fresh < fresh.size() &&
                           captureOpOf(units[fresh[next_fresh]],
                                       opts.warmupOps) == op_idx) {
                        const std::uint64_t u = fresh[next_fresh++];
                        LivePoint lp;
                        lp.unit = u;
                        lp.captureOp = op_idx;
                        lp.unitBegin = units[u].opBegin;
                        lp.unitEnd = units[u].opEnd;
                        cache->captureState(lp.cacheState);
                        // Seed the measurement's compulsory-miss
                        // classification with every already-touched
                        // line the warming prefix or window can
                        // re-touch.  A superset of the actual
                        // re-touches is harmless (the simulator only
                        // consults the set for lines it accesses), and
                        // the interval filter is a per-capture scan of
                        // the touched lines instead of per-element
                        // bookkeeping on the walk.
                        const std::vector<LineRange> ranges =
                            windowLineRanges(layout, trace, op_idx,
                                             lp.unitEnd);
                        for (const Addr line : touch_order) {
                            for (const LineRange &r : ranges) {
                                if (line >= r.lo && line <= r.hi) {
                                    lp.prewarmedLines.push_back(line);
                                    break;
                                }
                            }
                        }
                        // Sorted lines make the journal rows canonical.
                        std::sort(lp.prewarmedLines.begin(),
                                  lp.prewarmedLines.end());
                        if (journal)
                            require(journal->recordDone(
                                u, encodeLivePoint(lp)));
                        pending.push_back(std::move(lp));
                    }
                    walker.step(trace[op_idx]);
                    if (pending.size() >= kMeasureChunk)
                        require(measurePoints(pending, opts.jobs,
                                              results, measure));
                }
                walked = walker.walkedElements;
                vc_assert(next_fresh == fresh.size(),
                          "sampling walk missed a capture point");
                require(measurePoints(pending, opts.jobs, results,
                                      measure));
            });
            est.warmingFraction =
                est.elementsTotal
                    ? static_cast<double>(walked) /
                          static_cast<double>(est.elementsTotal)
                    : 0.0;

            computeCi(results, opts, est);
            // A periodic trace can alias with the systematic stride:
            // the sample then looks uniform (CI collapses) while the
            // skipped phase differs.  Stride-k aliasing is exposed at
            // stride k/2, so an early stop additionally requires the
            // previous (coarser) round's estimate to fall inside the
            // current interval.
            const bool consistent =
                have_prev && std::abs(est.cyclesPerElement -
                                      prev_ratio) <= est.ciHalfWidth;
            if ((est.ciMet && consistent) || k == 1)
                break;
            prev_ratio = est.cyclesPerElement;
            have_prev = true;
            k /= 2;
        }
        if (journal)
            require(journal->flush());
    } catch (const VcError &e) {
        return e.error();
    }

    est.detailedTotals = SimResult{};
    for (const auto &r : results)
        if (r)
            sumWindow(*r, est.detailedTotals);
    publishCounters(est, opts.registry);
    return est;
}

Expected<SamplingEstimate>
sampleMm(const MachineParams &machine, const Trace &trace,
         const SamplingOptions &opts)
{
    if (const Expected<void> v = validateOptions(opts); !v.ok())
        return v.error();
    if (trace.empty())
        return makeError(Errc::InvalidConfig,
                         "cannot sample an empty trace");

    const std::vector<SamplingUnit> units =
        partitionUnits(trace, opts.unitElements);
    const std::uint64_t total = units.size();

    SamplingEstimate est;
    est.unitsTotal = total;
    for (const SamplingUnit &u : units)
        est.elementsTotal += u.elements;

    std::uint64_t k = initialStride(total, opts.initialUnits);
    const std::uint64_t offset = opts.seed % k;
    std::vector<std::optional<UnitResult>> results(total);
    double prev_ratio = 0.0;
    bool have_prev = false;

    std::vector<std::unique_ptr<MmSimulator>> sims;
    for (unsigned w = 0; w < std::max(opts.jobs, 1u); ++w) {
        auto sim = std::make_unique<MmSimulator>(machine);
        // Scalar replay: a measurement window is a few ops, too short
        // for the run-batched fast-forward's per-op certification to
        // amortize (the results are bit-identical either way).
        sim->setEngine(SimEngine::Scalar);
        sim->setCancelToken(opts.cancel);
        sims.push_back(std::move(sim));
    }
    const auto measure = [&](const LivePoint &lp, unsigned worker) {
        return measureMmPoint(*sims[worker], trace, lp);
    };

    for (;;) {
        ++est.rounds;
        // The MM machine carries no state between units, so a
        // live-point is just the window bounds; unsampled units are
        // skipped without any walk at all.
        std::vector<LivePoint> pending;
        for (std::uint64_t u :
             newSampleUnits(total, k, offset, results)) {
            LivePoint lp;
            lp.unit = u;
            lp.captureOp = captureOpOf(units[u], opts.warmupOps);
            lp.unitBegin = units[u].opBegin;
            lp.unitEnd = units[u].opEnd;
            pending.push_back(std::move(lp));
            if (pending.size() >= kMeasureChunk) {
                const Expected<void> m =
                    measurePoints(pending, opts.jobs, results, measure);
                if (!m.ok())
                    return m.error();
            }
        }
        const Expected<void> m =
            measurePoints(pending, opts.jobs, results, measure);
        if (!m.ok())
            return m.error();

        computeCi(results, opts, est);
        // Same anti-aliasing stop rule as sampleCc: the coarser
        // round's estimate must fall inside the current interval.
        const bool consistent =
            have_prev && std::abs(est.cyclesPerElement - prev_ratio) <=
                             est.ciHalfWidth;
        if ((est.ciMet && consistent) || k == 1)
            break;
        prev_ratio = est.cyclesPerElement;
        have_prev = true;
        k /= 2;
    }

    est.detailedTotals = SimResult{};
    for (const auto &r : results)
        if (r)
            sumWindow(*r, est.detailedTotals);
    publishCounters(est, opts.registry);
    return est;
}

} // namespace vcache
