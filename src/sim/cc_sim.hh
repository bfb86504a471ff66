/**
 * @file
 * Trace-driven simulator of the CC-model machine (Figure 3): the MM
 * machine plus a vector data cache in front of the banks.
 *
 * Timing follows the paper's assumptions:
 *
 *   - a cache hit sustains one element per cycle;
 *   - a *first-touch* (compulsory) miss is pipelined through the
 *     interleaved banks like an MM-model access (the initial loading
 *     of each block, Equation (1));
 *   - any other miss -- interference or capacity -- stalls the
 *     pipeline for the full t_m memory time ("cache misses may not be
 *     easily pipelined", Section 3.3);
 *   - a strip whose leading element hits starts up t_m cycles faster
 *     (the "- t_m" in Equation (4));
 *   - writes drain through the write bus without stalling.
 *
 * Bus inertness: without prefetching no read ever waits for a bus.
 * Every read issues at the pipeline clock, and a read granted at
 * cycle g leaves the clock at (bank issue >= g) + 1 > g, so the next
 * read finds its bus free.  The NullObserver, Prefetching=false
 * instantiation therefore takes bus = clock and never touches the
 * BusSet; observed runs keep it so onBusWait still fires (with zero
 * waits; tests/obs pins that).  Store drains never stall and nothing
 * reads the write bus, so it is not modelled at all.
 *
 * The per-element loop is a member template over the concrete cache
 * type *and* an Observer policy: run() dispatches once per run on the
 * paper's two mapping schemes (direct and prime), whose accesses then
 * compile to direct, inlinable calls, with the virtual interface as
 * the fallback for every other organization.  Every instrumentation
 * hook sits behind `if constexpr (Observer::kEnabled)`, so the
 * NullObserver instantiations (the plain run() overloads) are exactly
 * the uninstrumented loops, while run(source, obs) with a
 * TracingObserver sees every hit, miss, bank conflict, bus wait and
 * prefetch with cycle stamps and set indices.  runVirtual() forces
 * the virtual fallback so tests can pin the fast paths against it.
 *
 * Run batching (SimEngine::Auto, the default for uninstrumented
 * runs): vector workloads repeat the same constant-stride operation
 * over and over, and after the first pass the cache settles into the
 * run's canonical end state, making every later pass a replay with
 * byte-identical deltas.  The batched loop memoizes the last vector
 * op and fast-forwards repeats through two certificate tiers:
 *
 *   - Tier 1 (direct and prime mappings, single stream): the modulo
 *     mapping makes the frame sequence periodic, so probeSteadyRun()
 *     gives the pass's hits/misses/warm-strip interval in closed form
 *     and verifySteadyRun() checks, in O(distinct frames), that the
 *     cache actually holds the canonical state the formula assumes.
 *   - Tier 2 (any organization): serialize everything the run can
 *     consult or mutate (appendRunState()) before and after an
 *     element-wise pass; equal snapshots plus no compulsory misses
 *     plus (no misses at all, or blocking-miss mode, which never
 *     touches buses or banks) prove the pass is a fixed point, so its
 *     measured deltas replay exactly.
 *
 * Extrapolated passes credit result, clock and cache counters in
 * O(strips) or O(1); everything else is provably unchanged.
 * Prefetch-enabled runs, instrumented runs and SimEngine::Scalar
 * always take the element-wise loop; equivalence is pinned by
 * tests/sim/batched_test.cc.
 */

#ifndef VCACHE_SIM_CC_SIM_HH
#define VCACHE_SIM_CC_SIM_HH

#include <algorithm>
#include <memory>

#include "analytic/machine.hh"
#include "cache/cache.hh"
#include "cache/direct.hh"
#include "cache/factory.hh"
#include "cache/prefetch.hh"
#include "cache/prime.hh"
#include "memory/bus.hh"
#include "memory/interleaved.hh"
#include "sim/cancel.hh"
#include "sim/engine.hh"
#include "sim/observe.hh"
#include "sim/result.hh"
#include "simd/kernels.hh"
#include "trace/access.hh"
#include "trace/source.hh"
#include "util/flat_hash.hh"

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
     * default) fast-forwards provably-steady repeated vector ops in
     * closed form; Scalar forces element-wise replay.  Both produce
     * bit-identical SimResults and cache statistics.  Instrumented
     * runs always replay element-wise regardless.
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

    /**
     * Run through the generic virtual-dispatch path regardless of the
     * cache's concrete type.  Exists so equivalence tests can pin the
     * devirtualized fast paths against the reference behaviour; it is
     * not meant for production use.
     */
    SimResult runVirtual(const Trace &trace);

    /** Prefetches issued by the timed prefetcher. */
    std::uint64_t prefetchesIssued() const { return prefetchCount; }

    /**
     * Cooperative cancellation: polled once per vector operation (one
     * relaxed load next to thousands of element accesses).  A tripped
     * token raises VcError(Timeout|Cancelled) out of run().  Null
     * (the default) disables the poll; the token must outlive the
     * simulator or be cleared first.
     */
    void setCancelToken(const CancelToken *token) { cancel = token; }

    /** Reset cache, banks and buses between runs. */
    void reset();

    /**
     * Restore a Cache::captureState() live-point snapshot into this
     * simulator's cache (sampling-engine resume; see sim/sampling.hh).
     * Bank and bus timing state is *not* part of a live-point -- the
     * caller re-warms it with a detailed-warming prefix.
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
        touchedLines.reserve(touchedLines.size() + lines.size());
        for (Addr line : lines)
            touchedLines.insert(line);
    }

    const Cache &cache() const { return *vectorCache; }
    const MachineParams &params() const { return machine; }

  private:
    /** How far the per-op fast-forward memo has been proven. */
    enum class BatchPhase
    {
        /** No op memoized yet. */
        None,
        /** One full element-wise pass of this op has completed. */
        Armed,
        /** A certificate held; the recorded deltas replay exactly. */
        Verified,
        /** Certification failed repeatedly; replay element-wise. */
        Refused,
    };

    /** Verification attempts before an op is refused for good. */
    static constexpr unsigned kBatchVerifyAttempts = 3;

    /**
     * Fast-forward memo for the most recent vector operation: the op
     * itself (the match key), the certification phase, and -- once
     * Verified -- the per-pass deltas to replay.  `before`/`after`
     * are the tier-2 snapshot scratch buffers, kept here so repeated
     * verification attempts reuse their capacity.
     */
    struct BatchMemo
    {
        VectorOp op;
        BatchPhase phase = BatchPhase::None;
        unsigned attempts = 0;
        /** Per-pass SimResult increments (totalCycles unused). */
        SimResult delta;
        /** Per-pass pipeline-clock advance. */
        Cycles clockDelta = 0;
        /** Per-pass cache-counter increments. */
        CacheStats stats;
        std::vector<std::uint64_t> before;
        std::vector<std::uint64_t> after;
    };

    /** Pick the Prefetching instantiation and run (see runImpl). */
    template <typename CacheT, typename Observer>
    SimResult dispatchRun(CacheT &cache, TraceSource &source,
                          Observer &obs);

    /**
     * The whole-run loop, monomorphized per concrete cache type and,
     * via `Prefetching`, per prefetch mode: a run that starts with no
     * prefetch state and a None policy can never grow any, so its
     * per-element path drops the in-flight and tag-flag checks.
     */
    template <typename CacheT, bool Prefetching, typename Observer>
    SimResult runImpl(CacheT &cache, TraceSource &source, Observer &obs);

    /** One vector op's strip-mined element loop (store excluded). */
    template <typename CacheT, bool Prefetching, typename Observer>
    void stripLoop(CacheT &cache, const VectorOp &op, SimResult &result,
                   Observer &obs);

    /** The run-batched whole-run loop (uninstrumented only). */
    template <typename CacheT, typename Observer>
    SimResult runBatched(CacheT &cache, TraceSource &source,
                         Observer &obs);

    /**
     * Certify an Armed repeat of `op`, trying tier 1 then tier 2 (see
     * the file comment).  Tier 1 certifies without executing the op
     * (the memo turns Verified and the caller applies it); tier 2
     * executes the op element-wise as its measurement pass, so on
     * return from tier 2 the op has already run.
     *
     * @return true when the op still needs applyBatch()
     */
    template <typename CacheT, typename Observer>
    bool attemptVerify(CacheT &cache, const VectorOp &op,
                       BatchMemo &memo, SimResult &result,
                       Observer &obs);

    /**
     * Tier-1 certificate: closed-form steady-state replay for the
     * modulo-mapped (direct/prime) schemes, single stream.
     */
    template <typename CacheT>
    bool trySteadyFastForward(CacheT &cache, const VectorOp &op,
                              BatchMemo &memo);

    /** Serialize all cache state the op's streams can touch. */
    bool appendOpState(const VectorOp &op,
                       std::vector<std::uint64_t> &out) const;

    /** Replay a Verified memo's deltas in O(1). */
    void applyBatch(const BatchMemo &memo, SimResult &result);

    /** Access one element, advancing the pipeline clock. */
    template <typename CacheT, bool Prefetching, typename Observer>
    void accessElement(CacheT &cache, const AddressLayout &layout,
                       Addr addr, SimResult &result, Observer &obs,
                       StreamOperand operand = StreamOperand::First);

    /** Launch the prefetches triggered at `addr` (timed). */
    template <typename CacheT, typename Observer>
    void issuePrefetches(CacheT &cache, const AddressLayout &layout,
                         Addr addr, Observer &obs);

  public:
    /**
     * Gang-probe replay (default on; VCACHE_GANG=off reverts):
     * uninstrumented, prefetch-free strips over a cache whose read
     * hits are inert probe a whole gang of upcoming lines through
     * the dispatched SIMD kernels, bulk-credit all-hit gangs, and
     * drop to the element-at-a-time loop on any miss mask.  Results
     * are bit-identical either way (the probe is side-effect-free);
     * tests/sim pins it.
     */
    void setGangReplay(bool on) { gangReplay = on; }
    bool gangReplayEnabled() const { return gangReplay; }

  private:
    /** Elements probed per gang (split across both streams when
     *  double-stream; simd::kMaxGang bounds the total). */
    static constexpr unsigned kGang = 32;

    MachineParams machine;
    std::unique_ptr<Cache> vectorCache;
    InterleavedMemory memory;
    BusSet buses;
    /** Every line ever brought in (first touch => compulsory). */
    FlatSet<Addr> touchedLines;
    Cycles clock = 0;
    bool nonBlocking = false;
    bool gangReplay = simd::gangReplayDefault();
    SimEngine engineKind = SimEngine::Auto;
    const CancelToken *cancel = nullptr;

    // Timed prefetch state.  The prefetched-but-untouched marks live
    // as kPrefetchedFlag bits on the cache's tag array.
    PrefetchPolicy prefetchPolicy = PrefetchPolicy::None;
    unsigned prefetchDegree = 1;
    std::int64_t streamStride = 1;
    /** Lines prefetched but still in flight: line -> arrival cycle. */
    FlatMap<Addr, Cycles> inFlight;
    std::uint64_t prefetchCount = 0;
};

/** Cache configuration matching the analytic machine and scheme. */
CacheConfig ccCacheConfig(const MachineParams &params,
                          CacheScheme scheme);

template <typename CacheT, typename Observer>
void
CcSimulator::issuePrefetches(CacheT &cache, const AddressLayout &layout,
                             Addr addr, Observer &obs)
{
    const std::int64_t step =
        prefetchPolicy == PrefetchPolicy::Stride
            ? (streamStride == 0 ? 1 : streamStride)
            : static_cast<std::int64_t>(layout.lineWords());

    Addr next = addr;
    for (unsigned d = 0; d < prefetchDegree; ++d) {
        next = static_cast<Addr>(static_cast<std::int64_t>(next) +
                                 step);
        const Addr line = layout.lineAddress(next);
        // One tag probe decides both "already resident?" and the
        // fill; its hit answer replaces the old contains() pre-check.
        if (!fillLine(cache, line))
            continue;
        // The prefetch streams through a read bus and its bank; the
        // data is usable one memory time after issue.
        const Cycles bus = buses.reserveReadObserved(clock, obs);
        const Cycles when = memory.issueObserved(next, bus, obs);
        if constexpr (Observer::kEnabled)
            obs.onPrefetchIssue(clock, line);
        inFlight.insertOrAssign(line, when + machine.memoryTime);
        setFrameFlag(cache, line, Cache::kPrefetchedFlag);
        touchedLines.insert(line);
        ++prefetchCount;
    }
}

template <typename CacheT, bool Prefetching, typename Observer>
VCACHE_ALWAYS_INLINE void
CcSimulator::accessElement(CacheT &cache, const AddressLayout &layout,
                           Addr addr, SimResult &result, Observer &obs,
                           StreamOperand operand)
{
    const Addr line = layout.lineAddress(addr);
    const AccessOutcome outcome = probeLine(cache, line);
    cache.recordAccess(outcome, AccessType::Read);

    if (outcome.hit) {
        ++result.hits;
        clock += 1;
        if constexpr (Observer::kEnabled)
            obs.onHit(clock, line, frameIndexOf(cache, line), operand);
        if constexpr (Prefetching) {
            // A hit on a line still in flight waits for whatever part
            // of the flight the vector pipeline cannot absorb.  The
            // strip start-up (T_start = 30 + t_m) already hides one
            // memory time of an in-order stream -- the same credit
            // the compulsory path gets -- so only bank-contention
            // delays beyond that are exposed.
            if (const Cycles *arrival = inFlight.find(line)) {
                const Cycles visible = clock + machine.memoryTime;
                Cycles late = 0;
                if (*arrival > visible) {
                    late = *arrival - visible;
                    result.stallCycles += late;
                    clock = *arrival - machine.memoryTime;
                }
                if constexpr (Observer::kEnabled)
                    obs.onPrefetchHit(clock, line, late);
                inFlight.erase(line);
            }
            // Tagged retrigger: first demand use of a prefetched line
            // launches the next prefetch.  No flag can be set before
            // the first prefetch issues, so runs without prefetching
            // skip the extra tag probe entirely.
            if (prefetchCount != 0 &&
                clearFrameFlag(cache, line, Cache::kPrefetchedFlag) &&
                prefetchPolicy != PrefetchPolicy::None) {
                issuePrefetches(cache, layout, addr, obs);
            }
        }
        return;
    }

    ++result.misses;
    const bool first_touch = touchedLines.insert(line);
    if (first_touch || nonBlocking) {
        // Compulsory miss (or any miss of a lockup-free cache): part
        // of the pipelined load stream; it flows through bus and
        // banks at streaming rate.
        if (first_touch)
            ++result.compulsoryMisses;
        // Bus inertness (file comment): only prefetches can make a
        // read wait for a bus.
        Cycles bus = clock;
        if constexpr (Prefetching || Observer::kEnabled)
            bus = buses.reserveReadObserved(clock, obs);
        const Cycles when = memory.issueObserved(addr, bus, obs);
        if constexpr (Observer::kEnabled)
            obs.onMiss(clock, line, frameIndexOf(cache, line),
                       first_touch ? MissKind::Compulsory
                                   : MissKind::NonBlocking,
                       when - clock, operand);
        result.stallCycles += when - clock;
        clock = when + 1;
    } else {
        // Interference/capacity miss: full memory round trip exposed.
        if constexpr (Observer::kEnabled)
            obs.onMiss(clock, line, frameIndexOf(cache, line),
                       MissKind::Blocking, machine.memoryTime, operand);
        result.stallCycles += machine.memoryTime;
        clock += 1 + machine.memoryTime;
    }
    if constexpr (Observer::kEnabled) {
        if (outcome.evicted)
            obs.onEviction(clock, line, outcome.evictedLine,
                           frameIndexOf(cache, line));
    }
    if constexpr (Prefetching) {
        if (prefetchPolicy != PrefetchPolicy::None)
            issuePrefetches(cache, layout, addr, obs);
    }
}

template <typename CacheT, typename Observer>
SimResult
CcSimulator::dispatchRun(CacheT &cache, TraceSource &source,
                         Observer &obs)
{
    // A run beginning with a None policy and no live prefetch state
    // (no lines in flight, no tag flags -- both imply prefetchCount
    // == 0) can never acquire any, so the specialized loop omits the
    // prefetch bookkeeping from the per-element path altogether.
    if (prefetchPolicy == PrefetchPolicy::None && prefetchCount == 0)
        return runImpl<CacheT, false>(cache, source, obs);
    return runImpl<CacheT, true>(cache, source, obs);
}

template <typename CacheT, bool Prefetching, typename Observer>
void
CcSimulator::stripLoop(CacheT &cache, const VectorOp &op,
                       SimResult &result, Observer &obs)
{
    const AddressLayout &layout = cache.addressLayout();

    // The strip start-up only takes two values per op -- cold head,
    // or warm head with the memory-latency credit of Equation (4) --
    // so the floating-point math happens once, not once per strip.
    const double base_startup =
        machine.stripOverhead + machine.startupTime();
    const Cycles cold_startup = static_cast<Cycles>(base_startup);
    const Cycles warm_startup = static_cast<Cycles>(
        base_startup - static_cast<double>(machine.memoryTime));

    const std::int64_t s1 = op.first.stride;
    const std::int64_t s2 = op.second ? op.second->stride : 0;

    for (std::uint64_t done = 0; done < op.first.length;
         done += machine.mvl) {
        // Strips whose head is already cached skip the memory
        // latency component of the start-up (Equation (4)).
        Addr a1 = op.first.element(done);
        const bool warm = containsWord(cache, a1);
        clock += warm ? warm_startup : cold_startup;

        const std::uint64_t count =
            std::min<std::uint64_t>(machine.mvl,
                                    op.first.length - done);

        // Gang-probe replay: probe a vector of upcoming lines in one
        // SIMD pass and bulk-credit gangs that hit throughout.  The
        // probe is side-effect-free and hits are inert on these
        // mappings, so an all-hit gang of k read accesses is exactly
        // k scalar hit iterations (clock += k, hits += k, the same
        // recordAccess totals); any miss bit drops the whole gang to
        // the element loop, which replays it in true issue order from
        // unchanged cache state.  Instrumented and prefetching runs
        // replay every element: their per-element hooks observe every
        // access.
        bool gang_probe = false;
        if constexpr (!Prefetching && !Observer::kEnabled)
            gang_probe = gangReplay && cache.readHitsAreInert();
        // The second stream is shorter: strips past its end are
        // single-stream strips.
        const VectorRef *second =
            op.second && done < op.second->length ? &op.second.value()
                                                  : nullptr;
        // Double-stream gangs interleave two streams into one mask, so
        // halve the stream-1 gang to keep the total inside one mask.
        const std::uint64_t max_g =
            !gang_probe ? count : second ? kGang / 2 : kGang;
        Addr a2 = second ? second->element(done) : 0;
        for (std::uint64_t i = 0; i < count;) {
            const unsigned g = static_cast<unsigned>(
                std::min<std::uint64_t>(max_g, count - i));
            // A gang whose head misses is certain to replay
            // element-wise, so skip its probe; at the strip head
            // `warm` already holds that residency.
            if (gang_probe && (i == 0 ? warm : containsWord(cache, a1))) {
                std::uint32_t hits = probeStrideGang(cache, a1, s1, g);
                unsigned g2 = 0;
                if (second) {
                    const std::uint64_t left =
                        second->length > done + i
                            ? second->length - (done + i)
                            : 0;
                    g2 = static_cast<unsigned>(
                        std::min<std::uint64_t>(g, left));
                    hits |= probeStrideGang(cache, a2, s2, g2) << g;
                }
                const unsigned total = g + g2;
                if (hits == simd::fullMask(total)) {
                    cache.recordReadHits(total);
                    result.hits += total;
                    result.results += g;
                    clock += total;
                    i += g;
                    a1 = static_cast<Addr>(
                        static_cast<std::int64_t>(a1) + s1 * g);
                    a2 = static_cast<Addr>(
                        static_cast<std::int64_t>(a2) + s2 * g);
                    continue;
                }
            }
            // Element-at-a-time replay in true issue order.
            if (!second) {
                for (unsigned j = 0; j < g; ++j, ++i) {
                    accessElement<CacheT, Prefetching>(cache, layout, a1,
                                                       result, obs);
                    ++result.results;
                    a1 = static_cast<Addr>(
                        static_cast<std::int64_t>(a1) + s1);
                }
                continue;
            }
            for (unsigned j = 0; j < g; ++j) {
                accessElement<CacheT, Prefetching>(cache, layout, a1,
                                                   result, obs,
                                                   StreamOperand::First);
                if (done + i < second->length)
                    accessElement<CacheT, Prefetching>(
                        cache, layout, a2, result, obs,
                        StreamOperand::Second);
                ++result.results;
                ++i;
                a1 = static_cast<Addr>(
                    static_cast<std::int64_t>(a1) + s1);
                a2 = static_cast<Addr>(
                    static_cast<std::int64_t>(a2) + s2);
            }
        }
    }
}

template <typename CacheT, bool Prefetching, typename Observer>
SimResult
CcSimulator::runImpl(CacheT &cache, TraceSource &source, Observer &obs)
{
    SimResult result;
    touchedLines.reserve(touchedLines.size() + source.readFootprint());

    if constexpr (Observer::kEnabled)
        obs.onRunBegin(cache.numSets(), cache.numLines());

    VectorOp op;
    while (source.next(op)) {
        if (cancel && cancel->cancelled())
            throwCancelled(*cancel);
        clock += static_cast<Cycles>(machine.blockOverhead);
        if constexpr (Observer::kEnabled)
            obs.onVectorOpBegin(clock, op);
        streamStride = op.first.stride; // the stride register value

        stripLoop<CacheT, Prefetching>(cache, op, result, obs);

        if constexpr (Observer::kEnabled)
            obs.onVectorOpEnd(clock);
    }

    result.totalCycles = clock;
    if constexpr (Observer::kEnabled)
        obs.onRunEnd(clock, result);
    return result;
}

template <typename CacheT>
bool
CcSimulator::trySteadyFastForward(CacheT &cache, const VectorOp &op,
                                  BatchMemo &memo)
{
    const VectorRef &ref = op.first;
    const SteadyRunProbe probe =
        cache.probeSteadyRun(ref.stride, ref.length);
    // A lockup-free cache pipelines non-compulsory misses through bus
    // and banks, mutating shared state every pass; only the blocking
    // stall-t_m model leaves them untouched and extrapolates.
    if (probe.misses != 0 && nonBlocking)
        return false;
    if (!cache.verifySteadyRun(ref.base, ref.stride, ref.length))
        return false;

    const double base_startup =
        machine.stripOverhead + machine.startupTime();
    const Cycles cold_startup = static_cast<Cycles>(base_startup);
    const Cycles warm_startup = static_cast<Cycles>(
        base_startup - static_cast<double>(machine.memoryTime));

    memo.delta = SimResult{};
    memo.stats = CacheStats{};
    memo.clockDelta = 0;
    for (std::uint64_t done = 0; done < ref.length;
         done += machine.mvl) {
        const std::uint64_t count =
            std::min<std::uint64_t>(machine.mvl, ref.length - done);
        // Elements inside [warmLo, warmHi) hit; the rest pay the
        // blocking-miss stall.  The strip head's residency decides
        // the Equation-4 start-up credit, exactly as containsWord()
        // would at this point of the replay.
        const std::uint64_t lo = std::max(done, probe.warmLo);
        const std::uint64_t hi = std::min(done + count, probe.warmHi);
        const std::uint64_t strip_hits = hi > lo ? hi - lo : 0;
        const std::uint64_t strip_misses = count - strip_hits;
        const bool warm =
            done >= probe.warmLo && done < probe.warmHi;
        memo.clockDelta += (warm ? warm_startup : cold_startup) +
                           count + machine.memoryTime * strip_misses;
        memo.delta.stallCycles += machine.memoryTime * strip_misses;
        memo.delta.hits += strip_hits;
        memo.delta.misses += strip_misses;
        memo.delta.results += count;
    }
    // Every steady-pass miss displaces a valid line (the class's
    // previous occupant) whose flags verifySteadyRun() proved clear:
    // evictions match misses, write-backs stay zero.
    memo.stats.accesses = ref.length;
    memo.stats.reads = ref.length;
    memo.stats.hits = probe.hits;
    memo.stats.misses = probe.misses;
    memo.stats.evictions = probe.misses;
    memo.phase = BatchPhase::Verified;
    return true;
}

template <typename CacheT, typename Observer>
bool
CcSimulator::attemptVerify(CacheT &cache, const VectorOp &op,
                           BatchMemo &memo, SimResult &result,
                           Observer &obs)
{
    constexpr bool kSteadyMapped =
        std::is_same_v<CacheT, DirectMappedCache> ||
        std::is_same_v<CacheT, PrimeMappedCache>;
    if constexpr (kSteadyMapped) {
        if (!op.second && trySteadyFastForward(cache, op, memo))
            return true;
    }

    // Tier 2: snapshot, element-wise measurement pass, snapshot.
    memo.before.clear();
    memo.after.clear();
    bool state_ok = appendOpState(op, memo.before);

    const SimResult r0 = result;
    const Cycles c0 = clock;
    const CacheStats s0 = cache.stats();
    stripLoop<CacheT, false>(cache, op, result, obs);

    state_ok = state_ok && appendOpState(op, memo.after) &&
               memo.before == memo.after;
    const std::uint64_t d_misses = result.misses - r0.misses;
    const std::uint64_t d_compulsory =
        result.compulsoryMisses - r0.compulsoryMisses;
    // Equal snapshots prove the pass was a fixed point of the cache
    // state; no compulsory misses and (no misses, or blocking-miss
    // mode) prove it never touched buses, banks or the touched-line
    // set either.  Then any identical op from here replays these
    // exact deltas.
    if (state_ok && d_compulsory == 0 &&
        (d_misses == 0 || !nonBlocking)) {
        memo.delta = SimResult{};
        memo.delta.results = result.results - r0.results;
        memo.delta.hits = result.hits - r0.hits;
        memo.delta.misses = d_misses;
        memo.delta.stallCycles = result.stallCycles - r0.stallCycles;
        memo.clockDelta = clock - c0;
        const CacheStats &s1 = cache.stats();
        memo.stats = CacheStats{};
        memo.stats.accesses = s1.accesses - s0.accesses;
        memo.stats.hits = s1.hits - s0.hits;
        memo.stats.misses = s1.misses - s0.misses;
        memo.stats.reads = s1.reads - s0.reads;
        memo.stats.writes = s1.writes - s0.writes;
        memo.stats.evictions = s1.evictions - s0.evictions;
        memo.stats.writebacks = s1.writebacks - s0.writebacks;
        memo.phase = BatchPhase::Verified;
    } else if (++memo.attempts >= kBatchVerifyAttempts) {
        memo.phase = BatchPhase::Refused;
    }
    return false; // the measurement pass already executed the op
}

template <typename CacheT, typename Observer>
SimResult
CcSimulator::runBatched(CacheT &cache, TraceSource &source,
                        Observer &obs)
{
    static_assert(!Observer::kEnabled,
                  "batched passes resolve accesses without visiting "
                  "them; instrumented runs must replay element-wise");
    SimResult result;
    BatchMemo memo;
    touchedLines.reserve(touchedLines.size() + source.readFootprint());

    VectorOp op;
    while (source.next(op)) {
        if (cancel && cancel->cancelled())
            throwCancelled(*cancel);
        clock += static_cast<Cycles>(machine.blockOverhead);
        streamStride = op.first.stride; // the stride register value

        const bool repeat =
            memo.phase != BatchPhase::None && op == memo.op;
        if (!repeat) {
            memo.op = op;
            memo.phase = BatchPhase::Armed;
            memo.attempts = 0;
            stripLoop<CacheT, false>(cache, op, result, obs);
        } else if (memo.phase == BatchPhase::Verified) {
            applyBatch(memo, result);
        } else if (memo.phase == BatchPhase::Refused) {
            stripLoop<CacheT, false>(cache, op, result, obs);
        } else if (attemptVerify(cache, op, memo, result, obs)) {
            applyBatch(memo, result);
        }
    }

    result.totalCycles = clock;
    return result;
}

template <typename Observer>
SimResult
CcSimulator::run(TraceSource &source, Observer &obs)
{
    Cache *base = vectorCache.get();
    if (auto *direct = dynamic_cast<DirectMappedCache *>(base))
        return dispatchRun(*direct, source, obs);
    if (auto *prime = dynamic_cast<PrimeMappedCache *>(base))
        return dispatchRun(*prime, source, obs);
    return dispatchRun(*base, source, obs);
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
