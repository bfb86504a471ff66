/**
 * @file
 * Trace-driven simulator of the CC-model machine (Figure 3): the MM
 * machine plus a vector data cache in front of the banks.
 *
 * A CcSimulator is the one-lane instantiation of the CC walker
 * (sim/cc_walker.hh), which states the timing rules, the gang probe
 * and the run memo once.  What this class adds is the solo machine's
 * state across runs -- the cache, the first-touch set and one timing
 * lane whose clock persists until reset() -- and the choice of walker
 * instantiation per run:
 *
 *   - run() dispatches once on the paper's two mapping schemes
 *     (direct and prime), whose accesses then compile to direct,
 *     inlinable calls, with the virtual interface for every other
 *     organization;
 *   - uninstrumented, prefetch-free runs under SimEngine::Auto (the
 *     default) take the walker's cold pass, gang probe and run memo;
 *     SimEngine::Scalar, prefetching runs and instrumented runs walk
 *     every element, and Scalar is the oracle the differential tests
 *     pin every other path against;
 *   - run(source, obs) with a TracingObserver sees every hit, miss,
 *     bank conflict, bus wait and prefetch with cycle stamps and set
 *     indices; with the NullObserver every hook vanishes under
 *     `if constexpr`.
 *
 * All of these produce bit-identical SimResults and cache statistics;
 * tests/sim/batched_test.cc and tests/sim/cc_fuzz_test.cc pin them.
 */

#ifndef VCACHE_SIM_CC_SIM_HH
#define VCACHE_SIM_CC_SIM_HH

#include <memory>
#include <type_traits>

#include "analytic/machine.hh"
#include "cache/cache.hh"
#include "cache/factory.hh"
#include "cache/prefetch.hh"
#include "sim/cancel.hh"
#include "sim/cc_walker.hh"
#include "sim/engine.hh"
#include "sim/result.hh"
#include "trace/access.hh"
#include "trace/source.hh"

namespace vcache
{

/** Cycle-level CC-model machine with a pluggable cache. */
class CcSimulator
{
  public:
    /**
     * @param params machine parameters (cache geometry comes from
     *               cache_config, which should agree with
     *               params.cacheIndexBits for like-for-like runs)
     * @param cache_config vector-cache configuration
     */
    CcSimulator(const MachineParams &params,
                const CacheConfig &cache_config);

    /** Convenience: direct- or prime-mapped cache per the scheme. */
    CcSimulator(const MachineParams &params, CacheScheme scheme);

    /**
     * Enable hardware prefetching with timing: a prefetch issues
     * through a read bus and its bank, and its line arrives one
     * memory time later.  The vector pipeline absorbs up to t_m
     * cycles of that flight (the same start-up credit the pipelined
     * compulsory loads enjoy), so what remains visible is bank
     * contention -- and, crucially, *interference*: prefetches into
     * frames the demand stream is thrashing evict each other and
     * leave the full t_m miss penalty in place.  That is the paper's
     * argument for removing conflicts (prime mapping) rather than
     * hiding latency (prefetch).
     *
     * @param policy sequential or stride scheme
     * @param degree lines prefetched per trigger
     */
    void enablePrefetch(PrefetchPolicy policy, unsigned degree);

    /**
     * Robustness knob: let interference/capacity misses stream
     * through the banks like the pipelined compulsory loads instead
     * of stalling the full t_m ("cache misses may not be easily
     * pipelined", Section 3.3, is the paper's assumption -- this
     * switch quantifies how much of the prime advantage rests on
     * it).  A lockup-free cache with enough MSHRs would approximate
     * this behaviour.
     */
    void setNonBlockingMisses(bool enable) { nonBlocking = enable; }

    /**
     * Select the execution engine for uninstrumented runs: Auto (the
     * default) gang-probes strips and fast-forwards provably-steady
     * repeated vector ops; Scalar walks every element.  Both produce
     * bit-identical SimResults and cache statistics.  Instrumented
     * runs always walk element-wise regardless.
     */
    void setEngine(SimEngine engine) { engineKind = engine; }
    SimEngine engine() const { return engineKind; }

    /** Run a whole trace from a cold start. */
    SimResult run(const Trace &trace);

    /** Run a streamed workload (no materialized trace needed). */
    SimResult run(TraceSource &source);

    /**
     * Instrumented run: identical timing, every Observer hook fired.
     * The observer must satisfy the contract in src/obs/observer.hh.
     */
    template <typename Observer>
    SimResult run(const Trace &trace, Observer &obs);

    /** Instrumented streamed run. */
    template <typename Observer>
    SimResult run(TraceSource &source, Observer &obs);

    /** Prefetches issued by the timed prefetcher. */
    std::uint64_t prefetchesIssued() const { return solo.prefetchCount; }

    /**
     * Cooperative cancellation: polled once per vector operation (one
     * relaxed load next to thousands of element accesses).  A tripped
     * token raises VcError(Timeout|Cancelled) out of run().  Null
     * (the default) disables the poll; the token must outlive the
     * simulator or be cleared first.
     */
    void setCancelToken(const CancelToken *token) { lane.cancel = token; }

    /** Reset cache, banks and buses between runs. */
    void reset();

    /**
     * Restore a Cache::captureState() live-point snapshot into this
     * simulator's cache (sampling-engine resume; see sim/sampling.hh).
     * Bank and bus timing state is *not* part of a live-point -- the
     * caller re-warms it with a detailed-warming prefix.  Every
     * restored line a later run can read must also be seeded with
     * seedTouchedLines(): the walker's cold pass proves lines absent
     * from the cache by their absence from the first-touch set.
     *
     * @return false on a geometry mismatch (cache unchanged)
     */
    bool
    restoreCacheState(const std::vector<std::uint64_t> &blob)
    {
        return vectorCache->restoreState(blob);
    }

    /**
     * Pre-populate the first-touch set that classifies compulsory
     * misses.  A live-point resume starts from a warmed cache, so the
     * lines the warming pass already brought in must not be counted
     * compulsory again when the measurement window re-misses them.
     */
    void
    seedTouchedLines(const std::vector<Addr> &lines)
    {
        touchedLines.reserve(lines.size());
        for (Addr line : lines)
            touchedLines.insert(line);
    }

    /** Which walker path answered each op since the last reset(). */
    const CcPathCounts &pathCounts() const { return paths; }

    const Cache &cache() const { return *vectorCache; }
    const MachineParams &params() const { return machine; }

  private:
    /**
     * The whole-run loop over one walker instantiation: `Prefetching`
     * is fixed per run (a run that starts with no prefetch state and a
     * None policy can never grow any).
     */
    template <typename CacheT, bool Prefetching, typename Observer>
    SimResult walk(CacheT &cache, TraceSource &source, Observer &obs);

    MachineParams machine;
    std::unique_ptr<Cache> vectorCache;
    /** Every line ever brought in (first touch => compulsory). */
    FirstTouchSet touchedLines;
    /** Which walker path answered each op since the last reset(). */
    CcPathCounts paths;
    /** The timing lane: clock, stall and bank replica. */
    CcLane lane;
    /** Read buses and timed-prefetch state. */
    CcSoloState solo;
    bool nonBlocking = false;
    SimEngine engineKind = SimEngine::Auto;
};

/** Cache configuration matching the analytic machine and scheme. */
CacheConfig ccCacheConfig(const MachineParams &params,
                          CacheScheme scheme);

template <typename CacheT, bool Prefetching, typename Observer>
SimResult
CcSimulator::walk(CacheT &cache, TraceSource &source, Observer &obs)
{
    touchedLines.reserve(source.readFootprint());
    // Sampled is driven from sim/sampling.hh, which feeds this
    // simulator per-unit trace slices; inside a unit it is Auto.
    const CcWalkOptions opts{
        .mvl = machine.mvl,
        .fastPaths = engineKind != SimEngine::Scalar,
        .nonBlocking = nonBlocking,
    };
    CcWalker<CacheT, LaneCount::One, Observer, Prefetching> walker(
        cache, touchedLines, std::span(&lane, 1), opts, obs, &solo);

    if constexpr (Observer::kEnabled)
        obs.onRunBegin(cache.numSets(), cache.numLines());
    lane.stall = 0;
    VectorOp op;
    while (source.next(op)) {
        if (lane.cancel && lane.cancel->cancelled())
            throwCancelled(*lane.cancel);
        walker.step(op);
    }

    paths.add(walker.pathCounts());
    SimResult result = walker.counts;
    result.stallCycles = lane.stall;
    result.totalCycles = lane.clock;
    if constexpr (Observer::kEnabled)
        obs.onRunEnd(lane.clock, result);
    return result;
}

template <typename Observer>
SimResult
CcSimulator::run(TraceSource &source, Observer &obs)
{
    // A run beginning with a None policy and no live prefetch state
    // (no lines in flight, no tag flags -- both imply prefetchCount
    // == 0) can never acquire any, so the specialized walk omits the
    // prefetch bookkeeping from the per-element path altogether.
    const bool prefetching =
        solo.prefetchPolicy != PrefetchPolicy::None ||
        solo.prefetchCount != 0;
    return withConcreteCache(*vectorCache, [&](auto &cache) {
        using CacheT = std::remove_reference_t<decltype(cache)>;
        return prefetching ? walk<CacheT, true>(cache, source, obs)
                           : walk<CacheT, false>(cache, source, obs);
    });
}

template <typename Observer>
SimResult
CcSimulator::run(const Trace &trace, Observer &obs)
{
    TraceVectorSource source(trace);
    return run(source, obs);
}

} // namespace vcache

#endif // VCACHE_SIM_CC_SIM_HH
