/**
 * @file
 * The CC machine's one walker: a functional pass over a vector-op
 * stream that drives zero, one or N timing lanes.
 *
 * Timing rules (Section 3.3 and Equation (4)), stated once and
 * applied by CcLane:
 *
 *   - op issue:         clock += T_block
 *   - strip start-up:   clock += T_strip + T_start(t_m); a strip
 *                       whose head element is already cached starts
 *                       t_m sooner (the "- t_m" of Equation (4))
 *   - hit:              clock += 1
 *   - blocking miss:    clock += 1 + t_m, stall += t_m (an
 *                       interference or capacity miss: "cache misses
 *                       may not be easily pipelined")
 *   - compulsory miss:  pipelined through the interleaved banks like
 *                       an MM-model access (Equation (1)): it issues
 *                       at its bank no earlier than the lane's clock,
 *                       stall += the wait, clock = issue + 1
 *   - non-blocking miss (CcSimulator::setNonBlockingMisses): a
 *                       non-compulsory miss streamed like a
 *                       compulsory one
 *   - stores drain through the write bus without stalling, so they
 *     are never walked.
 *
 * The first four are *countable* events: each costs a lane a
 * per-lane constant.  A lone lane takes each as it happens; for many
 * lanes the walker only counts them (CcEvents), and each lane absorbs
 * a run of them as one multiply-add chain.  The last two are
 * *clock-coupled*: they consult a bank horizon at the lane's own
 * clock, so the walker first flushes its counts into every lane, and
 * each lane then resolves the miss against its own bank replica.
 *
 * Bus inertness: without prefetching no read ever waits for a bus.
 * Every read issues at the pipeline clock, and a read granted at
 * cycle g leaves the clock at (bank issue >= g) + 1 > g, so the next
 * read finds its bus free.  Lanes therefore carry no bus state; only
 * the observed or prefetching one-lane instantiation reserves buses
 * (so onBusWait still fires, with zero waits; tests/obs pins that).
 * Nothing reads the write bus, so it is not modelled at all.
 *
 * The functional state -- the cache, with its replacement state, and
 * the first-touch set that classifies compulsory misses -- never reads
 * a clock, so one walk serves every lane.  On top of the element loop
 * the walker has two fast paths, both exact, which run together or
 * not at all (CcWalkOptions::fastPaths): SimEngine::Auto, gang lanes
 * and the sampling warmer take both; SimEngine::Scalar takes neither,
 * so its element loop is the one reference every fast path is pinned
 * against (tests/sim/cc_fuzz_test.cc):
 *
 *   - Gang probe: on a cache whose read hits are inert, a strip is
 *     probed a gang of lines at a time through the dispatched SIMD
 *     kernels (32 elements, or 16 per stream when double-stream).  An
 *     all-hit gang is credited in bulk; any miss drops the gang to
 *     the element loop, which replays it in issue order from
 *     unchanged state.  A gang whose head misses is not probed.
 *   - Run memo: vector workloads repeat one constant-stride op, and
 *     after a pass or two the cache settles into the op's fixed
 *     point.  The memo keeps the last op and certifies a repeat
 *     through one of two tiers; a Verified op then replays its event
 *     counts in O(1):
 *       - tier 1 (direct and prime mappings, single stream): the
 *         modulo mapping makes the frame sequence periodic, so
 *         probeSteadyRun() gives the pass's hits and warm-strip
 *         interval in closed form and verifySteadyRun() checks, in
 *         O(distinct frames), that the cache holds the canonical
 *         state the formula assumes;
 *       - tier 2 (any organization): appendRunState() snapshots
 *         everything the op can consult or mutate around an
 *         element-wise pass; equal snapshots and no clock-coupled
 *         event prove the pass a fixed point, so its counts replay
 *         (a solo walk tries it from the op's third walk on).
 *     Three failed attempts refuse the op until a different op
 *     intervenes.
 *
 * Lane counts: Zero is sampling's functional warming (it records the
 * first-touch order instead), One is CcSimulator, Many is
 * simulateCcGang.  Observer hooks and timed prefetch exist only on
 * the one-lane instantiation, under `if constexpr`; they see every
 * element, so they force element-wise replay (no gang probe, no
 * memo).
 */

#ifndef VCACHE_SIM_CC_WALKER_HH
#define VCACHE_SIM_CC_WALKER_HH

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "analytic/machine.hh"
#include "cache/cache.hh"
#include "cache/mapped.hh"
#include "cache/prefetch.hh"
#include "memory/bus.hh"
#include "memory/interleaved.hh"
#include "sim/cancel.hh"
#include "sim/observe.hh"
#include "sim/result.hh"
#include "simd/kernels.hh"
#include "trace/access.hh"
#include "util/flat_hash.hh"

namespace vcache
{

/**
 * Countable CC events (see the file comment).  add() is the event sink
 * interface CcLane shares: the walker hands each event straight to a
 * lone lane, or counts it here for the next flush into many.
 */
struct CcEvents
{
    std::uint64_t ops = 0;
    std::uint64_t coldStrips = 0;
    std::uint64_t warmStrips = 0;
    std::uint64_t hits = 0;
    std::uint64_t blocking = 0;

    bool
    any() const
    {
        return (ops | coldStrips | warmStrips | hits | blocking) != 0;
    }

    void
    add(const CcEvents &o)
    {
        ops += o.ops;
        coldStrips += o.coldStrips;
        warmStrips += o.warmStrips;
        hits += o.hits;
        blocking += o.blocking;
    }
};

/** One timing lane: the CC timing rules for one machine. */
struct CcLane
{
    explicit CcLane(const MachineParams &m,
                    const CancelToken *token = nullptr)
        : memoryTime(m.memoryTime),
          blockOverhead(static_cast<Cycles>(m.blockOverhead)),
          memory(m.bankBits, m.memoryTime, m.bankMapping), cancel(token)
    {
        // The strip start-up only takes two values -- cold head, or
        // warm head with the memory-latency credit -- so the
        // floating-point math happens once per lane.
        const double startup = m.stripOverhead + m.startupTime();
        coldStrip = static_cast<Cycles>(startup);
        warmStrip = static_cast<Cycles>(
            startup - static_cast<double>(m.memoryTime));
    }

    /**
     * Absorb a run of countable events.  Single events come through
     * here too: their zero terms fold away once inlined.
     */
    void
    add(const CcEvents &e)
    {
        clock += e.ops * blockOverhead + e.coldStrips * coldStrip +
                 e.warmStrips * warmStrip + e.hits +
                 e.blocking * (1 + memoryTime);
        stall += e.blocking * memoryTime;
    }

    /**
     * Resolve a clock-coupled miss: a pipelined load through `bank`,
     * its read granted at `bus` (>= clock).
     *
     * @return the cycles the pipeline waited
     */
    template <typename Observer>
    Cycles
    load(std::uint64_t bank, Cycles bus, Observer &obs)
    {
        const Cycles when = memory.issueAtBank(bank, bus);
        if constexpr (Observer::kEnabled)
            obs.onBankIssue(bus, bank, when - bus);
        const Cycles wait = when - clock;
        stall += wait;
        clock = when + 1;
        return wait;
    }

    Cycles clock = 0;
    Cycles stall = 0;
    Cycles memoryTime;
    Cycles blockOverhead;
    Cycles coldStrip = 0;
    Cycles warmStrip = 0;
    InterleavedMemory memory;
    /** Polled once per op by the run loop; null disables the poll. */
    const CancelToken *cancel;
    /** A cancelled gang lane: skipped from then on. */
    bool dead = false;
};

/**
 * Solo-only state behind the one-lane walker's `if constexpr` hooks:
 * the read buses observed runs report on, and the timed prefetcher
 * (see CcSimulator::enablePrefetch).
 */
struct CcSoloState
{
    BusSet buses;
    PrefetchPolicy prefetchPolicy = PrefetchPolicy::None;
    unsigned prefetchDegree = 1;
    /** The stride register value: the current op's first stride. */
    std::int64_t streamStride = 1;
    /** Lines prefetched but still in flight: line -> arrival cycle. */
    FlatMap<Addr, Cycles> inFlight;
    std::uint64_t prefetchCount = 0;
};

/** How many timing lanes a walker drives. */
enum class LaneCount
{
    Zero,
    One,
    Many,
};

/** Per-walk switches (no timing parameters: those live in lanes). */
struct CcWalkOptions
{
    /** Elements per strip (the machine's MVL). */
    std::uint64_t mvl = 64;
    /**
     * Gang-probe strips (on caches whose read hits are inert) and
     * fast-forward repeated ops through the run memo.  Off is
     * SimEngine::Scalar: the element loop alone, the oracle.
     */
    bool fastPaths = true;
    /** Non-compulsory misses are clock-coupled, not blocking. */
    bool nonBlocking = false;
};

/**
 * Run `f` on `cache` as its concrete type: the paper's two mappings
 * compile to direct, inlinable calls; every other organization goes
 * through the virtual interface.
 */
template <typename F>
decltype(auto)
withConcreteCache(Cache &cache, F &&f)
{
    if (auto *direct = dynamic_cast<DirectMappedCache *>(&cache))
        return f(*direct);
    if (auto *prime = dynamic_cast<PrimeMappedCache *>(&cache))
        return f(*prime);
    return f(cache);
}

/**
 * Serialize all cache state an op's load streams can touch.  The
 * element loop reads the second stream only while the first still has
 * elements, so its reach truncates there.
 */
inline bool
appendOpState(const Cache &cache, const VectorOp &op,
              std::vector<std::uint64_t> &out)
{
    if (!cache.appendRunState(op.first.base, op.first.stride,
                              op.first.length, out))
        return false;
    if (!op.second)
        return true;
    const std::uint64_t length =
        std::min(op.second->length, op.first.length);
    return cache.appendRunState(op.second->base, op.second->stride,
                                length, out);
}

/** The walker (see the file comment). */
template <typename CacheT, LaneCount Lanes, typename Observer,
          bool Prefetching = false>
class CcWalker
{
  public:
    /** Per-element hooks force element-wise replay. */
    static constexpr bool kElementWise =
        Observer::kEnabled || Prefetching;
    static_assert(Lanes == LaneCount::One || !kElementWise,
                  "observer and prefetch hooks are one-lane only");

    /**
     * @param lanes the timing lanes (empty for Zero, one for One)
     * @param solo the prefetch and bus state; read only by the
     *             element-wise (observed or prefetching) instantiation
     */
    CcWalker(CacheT &cache, FlatSet<Addr> &touched,
             std::span<CcLane> lanes, const CcWalkOptions &opts,
             Observer &obs, CcSoloState *solo = nullptr)
        : cache(cache), touched(touched), lanes(lanes), opts(opts),
          obs(obs), solo(solo)
    {
    }

    /** Walk one vector op (its store excluded, see the file comment). */
    void
    step(const VectorOp &op)
    {
        sink().add({.ops = 1});
        if constexpr (kElementWise) {
            if constexpr (Prefetching)
                solo->streamStride = op.first.stride;
            if constexpr (Observer::kEnabled)
                obs.onVectorOpBegin(lanes[0].clock, op);
            stripLoop(op);
            if constexpr (Observer::kEnabled)
                obs.onVectorOpEnd(lanes[0].clock);
        } else {
            if (!opts.fastPaths) {
                stripLoop(op);
                return;
            }
            const bool repeat =
                memo.phase != Phase::None && op == memo.op;
            if (!repeat) {
                memo.op = op;
                memo.phase = Phase::Armed;
                memo.attempts = 0;
                memo.repeated = false;
                stripLoop(op);
            } else if (memo.phase == Phase::Verified) {
                replay();
            } else if (memo.phase == Phase::Refused) {
                stripLoop(op);
            } else if (certify(op)) {
                replay();
            }
        }
    }

    /**
     * Bring every live lane's clock up to date (a lone lane always
     * is: it takes each event as it happens).
     */
    void
    flush()
    {
        if constexpr (Lanes == LaneCount::Many) {
            // Back-to-back compulsory misses (a cold streaming pass)
            // find nothing pending.
            if (!pending.any())
                return;
            for (CcLane &l : lanes)
                if (!l.dead)
                    l.add(pending);
            pending = CcEvents{};
        }
    }

    /** Lane-independent results so far (the two cycle fields unused). */
    SimResult counts;
    /** Elements of the ops walked rather than replayed from the memo. */
    std::uint64_t walkedElements = 0;
    /** Zero lanes: when set, receives each line at its first touch. */
    std::vector<Addr> *firstTouchOrder = nullptr;

  private:
    /** How far the memo has been proven. */
    enum class Phase
    {
        /** No op memoized yet. */
        None,
        /** One full element-wise pass of this op has completed. */
        Armed,
        /** A certificate held; the recorded deltas replay exactly. */
        Verified,
        /** Certification failed repeatedly; walk element-wise. */
        Refused,
    };

    /** Verification attempts before an op is refused. */
    static constexpr unsigned kVerifyAttempts = 3;

    /** Elements probed per gang (halved per stream when double). */
    static constexpr unsigned kGang = 32;

    static constexpr bool kSteadyMapped =
        std::is_same_v<CacheT, DirectMappedCache> ||
        std::is_same_v<CacheT, PrimeMappedCache>;

    /**
     * The last op, its certification phase, and -- once Verified --
     * the per-pass deltas to replay.  `before`/`after` are the tier-2
     * snapshot buffers, kept so repeated attempts reuse capacity.
     */
    struct Memo
    {
        VectorOp op;
        Phase phase = Phase::None;
        unsigned attempts = 0;
        /** A repeat of the op has been walked since it was armed. */
        bool repeated = false;
        CcEvents events;
        /** results, hits and misses per pass. */
        SimResult counts;
        CacheStats stats;
        std::vector<std::uint64_t> before;
        std::vector<std::uint64_t> after;
    };

    /** Where countable events go (see CcEvents). */
    auto &
    sink()
    {
        if constexpr (Lanes == LaneCount::One)
            return lanes[0];
        else
            return pending;
    }

    void
    replay()
    {
        // Nothing reads a zero-lane walk's counters or cache stats.
        if constexpr (Lanes == LaneCount::Zero)
            return;
        sink().add(memo.events);
        counts.results += memo.counts.results;
        counts.hits += memo.counts.hits;
        counts.misses += memo.counts.misses;
        cache.applyStatsDelta(memo.stats);
    }

    /**
     * Certify an Armed repeat, tier 1 then tier 2.  Tier 1 does not
     * walk the op (the caller replays it); tier 2's measurement pass
     * walks it.  A solo walk holds tier 2 back until the op's third
     * walk: its two snapshots cost about a pass, which an op seen
     * only twice in a row never repays, and a solo run may be one of
     * sampling's measurement windows, often just two ops.  (The
     * warmer and gang lanes walk whole traces.)
     *
     * @return true when the op still needs replay()
     */
    bool
    certify(const VectorOp &op)
    {
        if constexpr (kSteadyMapped) {
            if (!op.second && steadyCertificate(op))
                return true;
        }
        if (Lanes == LaneCount::One && !memo.repeated) {
            memo.repeated = true;
            stripLoop(op);
            return false;
        }

        memo.before.clear();
        memo.after.clear();
        bool state_ok = appendOpState(cache, op, memo.before);
        const SimResult c0 = counts;
        const std::uint64_t cold0 = coldStrips;
        const std::uint64_t warm0 = warmStrips;
        const CacheStats s0 = cache.stats();
        stripLoop(op);
        state_ok = state_ok && appendOpState(cache, op, memo.after) &&
                   memo.before == memo.after;
        const std::uint64_t d_misses = counts.misses - c0.misses;
        // Equal snapshots prove the pass a fixed point of the cache
        // state.  A pass without clock-coupled events -- no compulsory
        // miss, and no miss at all when misses are non-blocking --
        // left the first-touch set and every bank alone, and each of
        // its misses was blocking, so its counts replay exactly.
        if (state_ok && counts.compulsoryMisses == c0.compulsoryMisses &&
            (d_misses == 0 || !opts.nonBlocking)) {
            memo.events = CcEvents{};
            memo.events.coldStrips = coldStrips - cold0;
            memo.events.warmStrips = warmStrips - warm0;
            memo.events.hits = counts.hits - c0.hits;
            memo.events.blocking = d_misses;
            memo.counts = SimResult{};
            memo.counts.results = counts.results - c0.results;
            memo.counts.hits = counts.hits - c0.hits;
            memo.counts.misses = d_misses;
            const CacheStats &s1 = cache.stats();
            memo.stats.accesses = s1.accesses - s0.accesses;
            memo.stats.hits = s1.hits - s0.hits;
            memo.stats.misses = s1.misses - s0.misses;
            memo.stats.reads = s1.reads - s0.reads;
            memo.stats.writes = s1.writes - s0.writes;
            memo.stats.evictions = s1.evictions - s0.evictions;
            memo.stats.writebacks = s1.writebacks - s0.writebacks;
            memo.phase = Phase::Verified;
        } else if (++memo.attempts >= kVerifyAttempts) {
            memo.phase = Phase::Refused;
        }
        return false;
    }

    /** Tier 1: the closed-form counts of a steady single-stream pass. */
    bool
    steadyCertificate(const VectorOp &op)
    {
        const VectorRef &ref = op.first;
        const SteadyRunProbe probe =
            cache.probeSteadyRun(ref.stride, ref.length);
        // Non-blocking misses are clock-coupled; only blocking ones
        // extrapolate.
        if (probe.misses != 0 && opts.nonBlocking)
            return false;
        if (!cache.verifySteadyRun(ref.base, ref.stride, ref.length))
            return false;

        // Elements in [warmLo, warmHi) hit and the rest take the
        // blocking stall; a strip starts warm iff its head offset (a
        // multiple of the MVL) lies in that interval, exactly as
        // containsWord() would answer at that point of the walk.
        const std::uint64_t mvl = opts.mvl;
        const auto heads = [mvl](std::uint64_t n) {
            return (n + mvl - 1) / mvl; // strip heads in [0, n)
        };
        const std::uint64_t hi = std::min(probe.warmHi, ref.length);
        const std::uint64_t lo = std::min(probe.warmLo, hi);
        const std::uint64_t hits = hi - lo;
        const std::uint64_t warm = heads(hi) - heads(lo);
        memo.events = CcEvents{};
        memo.events.coldStrips = heads(ref.length) - warm;
        memo.events.warmStrips = warm;
        memo.events.hits = hits;
        memo.events.blocking = ref.length - hits;
        memo.counts = SimResult{};
        memo.counts.results = ref.length;
        memo.counts.hits = hits;
        memo.counts.misses = ref.length - hits;
        // Every steady-pass miss displaces a valid line (the class's
        // previous occupant) whose flags verifySteadyRun() proved
        // clear: evictions match misses, write-backs stay zero.
        memo.stats = CacheStats{};
        memo.stats.accesses = ref.length;
        memo.stats.reads = ref.length;
        memo.stats.hits = probe.hits;
        memo.stats.misses = probe.misses;
        memo.stats.evictions = probe.misses;
        memo.phase = Phase::Verified;
        return true;
    }

    /** One op's strip-mined element loop, with the gang probe. */
    void
    stripLoop(const VectorOp &op)
    {
        // Locals, not members: the tag array's byte-wide stores may
        // alias any member, which would force reloads per element.
        CacheT &cache = this->cache;
        const AddressLayout &layout = cache.addressLayout();
        walkedElements += op.first.length;
        const std::int64_t s1 = op.first.stride;
        const std::int64_t s2 = op.second ? op.second->stride : 0;
        bool gang_probe = false;
        if constexpr (!kElementWise)
            gang_probe = opts.fastPaths && cache.readHitsAreInert();

        for (std::uint64_t done = 0; done < op.first.length;
             done += opts.mvl) {
            Addr a1 = op.first.element(done);
            const bool warm = containsWord(cache, a1);
            if (warm) {
                ++warmStrips;
                sink().add({.warmStrips = 1});
            } else {
                ++coldStrips;
                sink().add({.coldStrips = 1});
            }

            const std::uint64_t count =
                std::min<std::uint64_t>(opts.mvl, op.first.length - done);
            // The second stream is shorter: strips past its end are
            // single-stream strips.
            const VectorRef *second =
                op.second && done < op.second->length
                    ? &op.second.value()
                    : nullptr;
            // Double-stream gangs interleave two streams into one
            // mask, so halve the stream-1 gang to fit.
            const std::uint64_t max_g =
                !gang_probe ? count : second ? kGang / 2 : kGang;
            Addr a2 = second ? second->element(done) : 0;
            for (std::uint64_t i = 0; i < count;) {
                const unsigned g = static_cast<unsigned>(
                    std::min<std::uint64_t>(max_g, count - i));
                const std::uint64_t second_left =
                    second && second->length > done + i
                        ? second->length - (done + i)
                        : 0;
                // The probe is side-effect-free and hits are inert, so
                // an all-hit gang of k reads is exactly k hit
                // iterations.  A gang whose head misses is certain to
                // replay element-wise, so skip its probe; at the strip
                // head `warm` already holds that residency.
                if (gang_probe &&
                    (i == 0 ? warm : containsWord(cache, a1))) {
                    std::uint32_t hits =
                        probeStrideGang(cache, a1, s1, g);
                    unsigned g2 = 0;
                    if (second) {
                        g2 = static_cast<unsigned>(
                            std::min<std::uint64_t>(g, second_left));
                        hits |= probeStrideGang(cache, a2, s2, g2) << g;
                    }
                    const unsigned total = g + g2;
                    if (hits == simd::fullMask(total)) {
                        cache.recordReadHits(total);
                        counts.hits += total;
                        sink().add({.hits = total});
                        counts.results += g;
                        i += g;
                        a1 = static_cast<Addr>(
                            static_cast<std::int64_t>(a1) + s1 * g);
                        a2 = static_cast<Addr>(
                            static_cast<std::int64_t>(a2) + s2 * g);
                        continue;
                    }
                }
                // Element-at-a-time replay in true issue order.  The
                // gang's results and position are credited after it,
                // which keeps the loop counter in a register.
                for (unsigned j = 0; j < g; ++j) {
                    access(cache, layout, a1, StreamOperand::First);
                    a1 = static_cast<Addr>(
                        static_cast<std::int64_t>(a1) + s1);
                    if (j < second_left) {
                        access(cache, layout, a2, StreamOperand::Second);
                        a2 = static_cast<Addr>(
                            static_cast<std::int64_t>(a2) + s2);
                    }
                }
                counts.results += g;
                i += g;
            }
        }
    }

    /** One element read. */
    VCACHE_ALWAYS_INLINE void
    access(CacheT &cache, const AddressLayout &layout, Addr addr,
           StreamOperand operand)
    {
        const Addr line = layout.lineAddress(addr);
        const AccessOutcome outcome = probeLine(cache, line);
        cache.recordAccess(outcome, AccessType::Read);

        if (outcome.hit) {
            ++counts.hits;
            sink().add({.hits = 1});
            if constexpr (kElementWise)
                hitHooks(addr, line, operand);
            return;
        }

        ++counts.misses;
        const bool first_touch = touched.insert(line);
        if (first_touch) {
            ++counts.compulsoryMisses;
            if constexpr (Lanes == LaneCount::Zero) {
                if (firstTouchOrder)
                    firstTouchOrder->push_back(line);
            }
        }
        if (first_touch || opts.nonBlocking) {
            coupledMiss(addr, line, first_touch, operand);
        } else {
            if constexpr (Observer::kEnabled)
                obs.onMiss(lanes[0].clock, line,
                           frameIndexOf(cache, line), MissKind::Blocking,
                           lanes[0].memoryTime, operand);
            sink().add({.blocking = 1});
        }
        if constexpr (Observer::kEnabled) {
            if (outcome.evicted)
                obs.onEviction(lanes[0].clock, line, outcome.evictedLine,
                               frameIndexOf(cache, line));
        }
        if constexpr (Prefetching) {
            if (solo->prefetchPolicy != PrefetchPolicy::None)
                issuePrefetches(addr);
        }
    }

    /** A compulsory or non-blocking miss: every lane issues it. */
    void
    coupledMiss(Addr addr, Addr line, bool first_touch,
                StreamOperand operand)
    {
        if constexpr (Lanes != LaneCount::Zero) {
            flush();
            // Every lane's banks share the machine's bank bits and
            // mapping, so one replica's bankOf() serves them all.
            const std::uint64_t bank = lanes[0].memory.bankOf(addr);
            if constexpr (Lanes == LaneCount::One) {
                CcLane &l = lanes[0];
                const Cycles at = l.clock;
                Cycles bus = at;
                if constexpr (kElementWise)
                    bus = solo->buses.reserveReadObserved(at, obs);
                const Cycles wait = l.load(bank, bus, obs);
                if constexpr (Observer::kEnabled)
                    obs.onMiss(at, line, frameIndexOf(cache, line),
                               first_touch ? MissKind::Compulsory
                                           : MissKind::NonBlocking,
                               wait, operand);
            } else {
                for (CcLane &l : lanes)
                    if (!l.dead)
                        l.load(bank, l.clock, obs);
            }
        }
    }

    /** Observer and prefetch work of a hit (element-wise only). */
    void
    hitHooks(Addr addr, Addr line, StreamOperand operand)
    {
        CcLane &l = lanes[0];
        if constexpr (Observer::kEnabled)
            obs.onHit(l.clock, line, frameIndexOf(cache, line), operand);
        if constexpr (Prefetching) {
            // A hit on a line still in flight waits for whatever part
            // of the flight the vector pipeline cannot absorb.  The
            // strip start-up already hides one memory time of an
            // in-order stream -- the same credit the compulsory path
            // gets -- so only bank-contention delays beyond that are
            // exposed.
            if (const Cycles *arrival = solo->inFlight.find(line)) {
                const Cycles visible = l.clock + l.memoryTime;
                Cycles late = 0;
                if (*arrival > visible) {
                    late = *arrival - visible;
                    l.stall += late;
                    l.clock = *arrival - l.memoryTime;
                }
                if constexpr (Observer::kEnabled)
                    obs.onPrefetchHit(l.clock, line, late);
                solo->inFlight.erase(line);
            }
            // Tagged retrigger: first demand use of a prefetched line
            // launches the next prefetch.  No flag can be set before
            // the first prefetch issues, so runs without prefetching
            // skip the extra tag probe entirely.
            if (solo->prefetchCount != 0 &&
                clearFrameFlag(cache, line, Cache::kPrefetchedFlag) &&
                solo->prefetchPolicy != PrefetchPolicy::None) {
                issuePrefetches(addr);
            }
        }
    }

    /** Launch the prefetches triggered at `addr` (timed). */
    void
    issuePrefetches(Addr addr)
    {
        CcLane &l = lanes[0];
        const AddressLayout &layout = cache.addressLayout();
        const std::int64_t step =
            solo->prefetchPolicy == PrefetchPolicy::Stride
                ? (solo->streamStride == 0 ? 1 : solo->streamStride)
                : static_cast<std::int64_t>(layout.lineWords());

        Addr next = addr;
        for (unsigned d = 0; d < solo->prefetchDegree; ++d) {
            next = static_cast<Addr>(static_cast<std::int64_t>(next) +
                                     step);
            const Addr line = layout.lineAddress(next);
            // One tag probe decides both "already resident?" and the
            // fill.
            if (!fillLine(cache, line))
                continue;
            // The prefetch streams through a read bus and its bank;
            // the data is usable one memory time after issue.
            const Cycles bus =
                solo->buses.reserveReadObserved(l.clock, obs);
            const Cycles when = l.memory.issueObserved(next, bus, obs);
            if constexpr (Observer::kEnabled)
                obs.onPrefetchIssue(l.clock, line);
            solo->inFlight.insertOrAssign(line, when + l.memoryTime);
            setFrameFlag(cache, line, Cache::kPrefetchedFlag);
            touched.insert(line);
            ++solo->prefetchCount;
        }
    }

    CacheT &cache;
    FlatSet<Addr> &touched;
    std::span<CcLane> lanes;
    CcWalkOptions opts;
    Observer &obs;
    CcSoloState *solo;
    /** Many lanes: countable events not yet flushed into them. */
    CcEvents pending;
    /** Strips walked, for the tier-2 measurement pass. */
    std::uint64_t coldStrips = 0;
    std::uint64_t warmStrips = 0;
    Memo memo;
};

} // namespace vcache

#endif // VCACHE_SIM_CC_WALKER_HH
