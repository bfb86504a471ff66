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
 * the walker has five fast paths, all exact, which run together or
 * not at all (CcWalkOptions::fastPaths): SimEngine::Auto, gang lanes
 * and the sampling warmer take them; SimEngine::Scalar takes none, so
 * its element loop is the one reference every fast path is pinned
 * against (tests/sim/cc_fuzz_test.cc).  CcPathCounts records which
 * path answered each op.
 *
 *   - Cold pass: a single-stream op whose every line is provably a
 *     first touch (a non-zero stride of at least a line, no wrap, and
 *     a line extent disjoint from the first-touch set's) misses on
 *     every element and starts every strip cold, and each of its
 *     misses issues at its bank exactly as an MM access does.  The
 *     walker fills the cache and the first-touch set in one loop and
 *     times each lane with the MM machine's closed form,
 *     InterleavedMemory::issueStripRun(), under its one eligibility
 *     predicate, canIssueStripRun() (residue bank mapping, no armed
 *     fault plan, strip start-up + 1 >= t_m).  A double-stream op
 *     whose first stream is provably cold the same way has a cold
 *     single-stream tail (its strips past the second stream) when the
 *     second stream's lines do not meet the tail's (progressionsMeet:
 *     a gcd and a modular inverse): the head is walked, the tail
 *     takes the cold-pass body (direct and prime caches).
 *   - Canonical state (direct and prime caches, one-word lines, no
 *     wrap): the frame sequence of a run X (base b, stride s, length
 *     L) has period P = steadyRunPeriod(frames, s), so element i
 *     shares its frame exactly with the elements i' == i (mod P).
 *     Any complete pass of X leaves each class's frame holding the
 *     class's last line: X's canonical indices [L - min(P, L), L).
 *     After a pass the walker keeps X, P and a candidate list: the
 *     canonical indices whose line may have been evicted since.  A
 *     complete single-stream pass leaves none; the head of a
 *     double-stream op whose tail the walker answers next logs the
 *     lines its reads evict that are canonical to X, by a range check
 *     and an exact divisibility test (LineLattice); any other pass
 *     with a second stream ends the tracking (see stripLoop()).  From
 *     that state,
 *     elements [h, L) of X hit on the window [max(h, L - P),
 *     min(L, h + P)) -- a class's first visit hits iff it is the
 *     class's last element -- and every other element is a blocking
 *     miss, since X's lines were all touched.  Each candidate j >= h
 *     corrects its class: the first visit i = j - floor((j - h) / P)
 *     * P hits iff its frame holds line(i), and the class ends
 *     holding line(j).  (A second stream that read a non-canonical
 *     line of X makes that visit hit.)  A strip starts warm iff its
 *     head element hits, and every miss evicts.  With h = 0 this
 *     answers a repeat of X, or a re-walk of X after a double-stream
 *     op; with h = the first single-stream strip it answers the tail
 *     of a double-stream op whose first stream is X, after the head
 *     is walked.  It refuses while any frame carries a flag (a
 *     restored live point) and, under non-blocking misses, whenever a
 *     miss could occur.  Stride 0 (one line, all hits but a
 *     candidate's first visit) is the one special case.
 *   - First touches by counting (direct and prime caches, one-word
 *     lines): a miss is compulsory iff its line was never touched.
 *     Every stream the walker walks or fills cold is a constant-stride
 *     run, and the first-touch set keeps such runs as records
 *     (FirstTouchSet).  Before a walk whose streams each have a
 *     non-zero stride and no wrap, whose reach holds no hashed line,
 *     and which reads at least kMinClassifiedReads lines, the walker
 *     classifies every read up front (classify()): a read is touched
 *     when a record holds its line -- the whole stream at once when
 *     one record holds it all, else the indices where the stream
 *     meets each record, one arithmetic progression per record
 *     (progressionMeets: a gcd and a modular inverse, then additions)
 *     -- or when the op read its line earlier: x_i == y_j marks y_j
 *     when i <= j (x_i issues first) and x_i otherwise.  The rest are
 *     first touches.  A miss then reads its answer instead of hashing
 *     its line, and each stream that read a line first becomes a
 *     record.  Any other walk hashes its misses, scanning only the
 *     records in its reach (FirstTouchSet::scopeTo()).  On the
 *     paper's VCM walk no line is ever hashed, so the set's FlatSet
 *     is never allocated.
 *   - Gang probe: on a cache whose read hits are inert, a
 *     single-stream strip (a single-stream op, or a double-stream
 *     op's strips past its second stream) is probed a gang of 32
 *     lines at a time through the dispatched SIMD kernels; strips
 *     that read both streams are walked unprobed.  An all-hit gang is
 *     credited in bulk.  On a direct or prime cache
 *     (one-word lines, no wrap) whose frame period for the stride is
 *     at least a gang, no two elements of a single-stream gang share
 *     a frame, so a miss cannot change another element's outcome: the
 *     mask is exact, and the walker credits each run of hits in bulk
 *     and reads only the misses, in issue order.  Any other gang with
 *     a miss drops to the element loop, which replays it in issue
 *     order from unchanged state.  A gang whose head misses is not
 *     probed.
 *   - Run memo (any organization): the memo keeps the last op, and
 *     appendRunState() snapshots everything a repeat can consult or
 *     mutate around an element-wise pass; equal snapshots and no
 *     clock-coupled event prove the pass a fixed point, so its event
 *     counts replay in O(1) (a solo walk tries it from the op's third
 *     walk on).  Three failed attempts refuse the op until a
 *     different op intervenes.  The canonical closed form answers
 *     single-stream repeats first, so the memo mostly serves
 *     double-stream repeats and the organizations without one.
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
#include <bit>
#include <span>
#include <type_traits>
#include <vector>

#include "analytic/machine.hh"
#include "cache/cache.hh"
#include "cache/mapped.hh"
#include "cache/prefetch.hh"
#include "memory/bus.hh"
#include "memory/interleaved.hh"
#include "numtheory/congruence.hh"
#include "sim/cancel.hh"
#include "sim/observe.hh"
#include "sim/result.hh"
#include "simd/kernels.hh"
#include "trace/access.hh"
#include "util/flat_hash.hh"
#include "util/logging.hh"

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
     * here too: their zero terms fold away once inlined, so it is
     * always inlined.
     */
    VCACHE_ALWAYS_INLINE void
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
 * The lines lo + j*step (0 <= j*step <= span, step > 0), with an
 * index test that needs no division: d = line - lo must be in range,
 * a multiple of 2^shift, and then d >> shift a multiple of the odd
 * part m, which holds iff (d >> shift) * m^-1 (mod 2^64) <= (2^64 -
 * 1) / m -- and the product is then the quotient j.
 */
struct LineLattice
{
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    Addr lo = 0;
    std::uint64_t span = 0;
    unsigned shift = 0;
    std::uint64_t inverse = 1;
    std::uint64_t limit = ~std::uint64_t{0};

    /** first + j*step for j < count (step ignored when count <= 1). */
    static LineLattice
    of(Addr first, std::uint64_t step, std::uint64_t count)
    {
        LineLattice l;
        l.lo = first;
        if (count <= 1 || step == 0)
            return l;
        l.span = step * (count - 1);
        l.shift = static_cast<unsigned>(std::countr_zero(step));
        const std::uint64_t odd = step >> l.shift;
        // odd * inverse == 1 (mod 2^64), by Newton's iteration: each
        // step doubles the correct low bits, from 3 at the start.
        l.inverse = odd;
        for (int k = 0; k < 5; ++k)
            l.inverse *= 2 - odd * l.inverse;
        l.limit = ~std::uint64_t{0} / odd;
        return l;
    }

    /** j with line == lo + j*step, or kNone. */
    std::uint64_t
    indexOf(Addr line) const
    {
        // Branch-free: the eviction log calls it on every eviction.
        const std::uint64_t d = line - lo;
        const std::uint64_t j = (d >> shift) * inverse;
        const bool in = (d <= span) &
                        ((d & ((std::uint64_t{1} << shift) - 1)) == 0) &
                        (j <= limit);
        return in ? j : kNone;
    }
};

/**
 * The first-touch set that classifies compulsory misses: every line
 * ever brought in, plus the extent [lo, hi] of those lines, widened at
 * every insert (a demand miss, a timed prefetch, a live-point seed).
 * The extent lets the cold pass prove, with two compares, that none of
 * an op's lines was ever touched.
 *
 * Lines are held as run records -- constant-stride progressions
 * (LineLattice), one per cold run or classified stream (see the
 * walker's first-touch classification) -- or hashed one by one into a
 * FlatSet, with their own extent, so the walker can prove that no
 * hashed line lies in an op's reach.  The FlatSet is reserved at its
 * first hashed insert, so a walk that hashes nothing never allocates
 * it.  At most kMaxRuns records are held: past that the oldest is
 * hashed line by line.  A hashed op scans only the records in its
 * reach, at most kScopeRuns of them (scopeTo()).
 */
class FirstTouchSet
{
  public:
    /** A run record: the lines lo + k*step, k < count. */
    struct Run
    {
        Addr lo = 0;
        std::uint64_t step = 1;
        std::uint64_t count = 0;
        LineLattice lines;
        /** Hashed ops' inserts that may still scan it (see scopeTo()). */
        std::uint64_t scans = 0;
        std::uint64_t id = 0;

        Addr hi() const { return lo + lines.span; }

        /** True when every line first + k*step (k < n) is held. */
        bool
        holds(Addr first, std::uint64_t stride, std::uint64_t n) const
        {
            return n == 0 ||
                   (lines.indexOf(first) != LineLattice::kNone &&
                    lines.indexOf(first + stride * (n - 1)) !=
                        LineLattice::kNone &&
                    (n == 1 || stride % step == 0));
        }
    };

    /** Records kept before the oldest is hashed. */
    static constexpr std::size_t kMaxRuns = 16;
    /** Records a hashed op scans per insert. */
    static constexpr std::size_t kScopeRuns = 4;
    /**
     * Scans a record may take per line before it is hashed: about what
     * hashing a line costs, in scans (measured on XOR-mapped VCM
     * traces, whose walked ops all hash past a cold pass's record).
     */
    static constexpr std::uint64_t kScansPerLine = 8;

    /** @return true when `line` is new to the set */
    bool
    insert(Addr line)
    {
        for (const Run &r : runs)
            if (r.lines.indexOf(line) != LineLattice::kNone)
                return false;
        return hash(line);
    }

    /**
     * Before a hashed op whose reads all lie in [first, last]: scope
     * its inserts to the records in that reach.  Past kScopeRuns the
     * oldest are hashed, and so is a record once its scans have cost
     * about what hashing its lines would (kScansPerLine): rent, then
     * buy, so a record scanned by many misses costs at most about
     * twice the cheaper of the two.
     */
    void
    scopeTo(Addr first, Addr last)
    {
        reachLo = first;
        reachHi = last;
        buildScope();
    }

    /**
     * Before a hashed op: its first insert must scopeTo() its reach,
     * unless no record is held.
     */
    void
    unscope()
    {
        if (scoped != kStale)
            chargeScope();
        scoped = runs.empty() ? 0 : kStale;
    }

    /** True when the current op must scopeTo() before its inserts. */
    bool scopeStale() const { return scoped == kStale; }

    /** True when the current op's scope holds no record. */
    bool scopeEmpty() const { return scoped == 0; }

    /** insertScoped() when scopeEmpty(): a plain hashed insert. */
    bool
    insertUnscoped(Addr line)
    {
        return hash(line);
    }

    /** insert() for a line in the last scopeTo()'s reach. */
    bool
    insertScoped(Addr line)
    {
        if (scoped != 0 && scopeHolds(line))
            return false;
        return hash(line);
    }

    /**
     * Add the lines lo + k*step (k < count; step > 0, no wrap) as a
     * record: extending a record it continues, and not at all when one
     * record holds them already.
     */
    void
    insertRun(Addr first, std::uint64_t step, std::uint64_t count)
    {
        if (count == 0)
            return;
        runsLo = std::min(runsLo, first);
        runsHi = std::max(runsHi, first + step * (count - 1));
        for (Run &r : runs) {
            if (r.holds(first, step, count))
                return;
            if (r.step != step)
                continue;
            if (first == r.hi() + step) {
                r = makeRun(r.lo, step, r.count + count, r.id);
                return;
            }
            if (first + step * count == r.lo) {
                r = makeRun(first, step, r.count + count, r.id);
                return;
            }
        }
        runs.push_back(makeRun(first, step, count, ++lastId));
        if (runs.size() > kMaxRuns)
            spill(0);
    }

    /** True when no line in [first, last] can be in the set. */
    bool
    disjoint(Addr first, Addr last) const
    {
        return (last < runsLo || first > runsHi) &&
               hashedDisjoint(first, last);
    }

    /** True when no hashed line lies in [first, last]. */
    bool
    hashedDisjoint(Addr first, Addr last) const
    {
        return last < hashedLo || first > hashedHi;
    }

    /** The run records, oldest first. */
    std::span<const Run> records() const { return runs; }

    /** Lines in the FlatSet. */
    std::size_t hashedLines() const { return lines.size(); }

    /**
     * Room for `n` more hashed lines, allocated at the next hashed
     * insert.
     */
    void reserve(std::size_t n) { lines.reserveOnGrowth(n); }

    void
    clear()
    {
        lines.clear();
        runs.clear();
        scoped = 0;
        scopeInserts = 0;
        scopeBudget = ~std::uint64_t{0};
        runsLo = hashedLo = ~Addr{0};
        runsHi = hashedHi = 0;
    }

  private:
    /** `scoped` between unscope() and scopeTo(). */
    static constexpr std::size_t kStale = ~std::size_t{0};

    static Run
    makeRun(Addr first, std::uint64_t step, std::uint64_t count,
            std::uint64_t id)
    {
        return {first, step, count, LineLattice::of(first, step, count),
                kScansPerLine * count, id};
    }

    /** True when a scoped record holds `line`; charges the scan. */
    bool
    scopeHolds(Addr line)
    {
        if (scopeInserts == scopeBudget) [[unlikely]]
            rescope();
        ++scopeInserts;
        for (std::size_t r = 0; r < scoped; ++r)
            if (scope[r].indexOf(line) != LineLattice::kNone)
                return true;
        return false;
    }

    /** Charge the scope and rebuild it, hashing exhausted records. */
    [[gnu::noinline]] void
    rescope()
    {
        chargeScope();
        buildScope();
    }

    /** Charge the current scope's inserts to its records. */
    void
    chargeScope()
    {
        for (std::size_t k = 0; k < scoped; ++k)
            for (Run &r : runs)
                if (r.id == scopeIds[k])
                    r.scans -= std::min(r.scans, scopeInserts);
        scopeInserts = 0;
    }

    /** Scope the records in [reachLo, reachHi] (see scopeTo()). */
    void
    buildScope()
    {
        scoped = 0;
        scopeBudget = ~std::uint64_t{0};
        for (std::size_t r = runs.size(); r-- > 0;) {
            const Run &run = runs[r];
            if (run.hi() < reachLo || run.lo > reachHi)
                continue;
            if (scoped == kScopeRuns || run.scans == 0) {
                spill(r);
                continue;
            }
            scope[scoped] = run.lines;
            scopeIds[scoped++] = run.id;
            scopeBudget = std::min(scopeBudget, run.scans);
        }
    }

    bool
    hash(Addr line)
    {
        hashedLo = std::min(hashedLo, line);
        hashedHi = std::max(hashedHi, line);
        return lines.insert(line);
    }

    /** Move record `r`'s lines into the FlatSet. */
    void
    spill(std::size_t r)
    {
        const Run run = runs[r];
        runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(r));
        for (std::uint64_t k = 0; k < run.count; ++k)
            hash(run.lo + run.step * k);
    }

    FlatSet<Addr> lines;
    std::vector<Run> runs;
    /**
     * The current hashed op's reach, the records in it, and the
     * inserts that scanned them, up to the fewest scans any has left.
     */
    Addr reachLo = 0;
    Addr reachHi = 0;
    LineLattice scope[kScopeRuns];
    std::uint64_t scopeIds[kScopeRuns] = {};
    std::size_t scoped = 0;
    std::uint64_t scopeInserts = 0;
    std::uint64_t scopeBudget = ~std::uint64_t{0};
    std::uint64_t lastId = 0;
    /** The extents of the records' lines and of the hashed ones;
     *  empty as [~0, 0]. */
    Addr runsLo = ~Addr{0};
    Addr runsHi = 0;
    Addr hashedLo = ~Addr{0};
    Addr hashedHi = 0;
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
     * Take the fast paths of the file comment (closed forms, gang
     * probe, run memo).  Off is SimEngine::Scalar: the element loop
     * alone, the oracle.
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
    CcWalker(CacheT &cache, FirstTouchSet &touched,
             std::span<CcLane> lanes, const CcWalkOptions &opts,
             Observer &obs, CcSoloState *solo = nullptr)
        : cache(cache), touched(touched), lanes(lanes), opts(opts),
          obs(obs), solo(solo), hashedAtStart(touched.hashedLines())
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
            stripLoop<false>(op, op.first.length);
            ++paths.elementWiseOps;
            if constexpr (Observer::kEnabled)
                obs.onVectorOpEnd(lanes[0].clock);
        } else {
            if (!opts.fastPaths) {
                stripLoop<false>(op, op.first.length);
                ++paths.elementWiseOps;
                return;
            }
            if (!op.second && canonicalPass(op.first)) {
                // The memo's op no longer holds the state it saw.
                memo.phase = Phase::None;
                ++paths.canonicalOps;
                return;
            }
            const bool repeat =
                memo.phase != Phase::None && op == memo.op;
            if (!repeat) {
                memo.op = op;
                memo.phase = Phase::Armed;
                memo.attempts = 0;
                memo.repeated = false;
                if (coldPass(op)) {
                    ++paths.coldOps;
                } else {
                    walk(op);
                    ++paths.elementWiseOps;
                }
            } else if (memo.phase == Phase::Verified) {
                replay();
            } else if (memo.phase == Phase::Refused) {
                walk(op);
                ++paths.refusedOps;
            } else if (certify(op)) {
                replay();
            } else {
                ++paths.elementWiseOps; // a certification pass
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

    /** Which path answered each op, and the lines hashed so far. */
    CcPathCounts
    pathCounts() const
    {
        CcPathCounts p = paths;
        p.hashedLines = touched.hashedLines() - hashedAtStart;
        return p;
    }

    /** Lane-independent results so far (the two cycle fields unused). */
    SimResult counts;
    /**
     * Elements walked or filled cold, rather than answered by the
     * canonical closed form or replayed from the memo.
     */
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

    /** Elements probed per single-stream gang. */
    static constexpr unsigned kGang = 32;

    /** Reads a walk needs before its classification repays itself. */
    static constexpr std::uint64_t kMinClassifiedReads = 64;

    /** A classified read's first-touch answer (see classify()). */
    static constexpr std::uint8_t kFirst = 0;
    static constexpr std::uint8_t kTouched = 1;

    /**
     * One classified stream's answers: every read touched when one
     * record holds the whole stream, else a mark per read.
     */
    struct StreamTouches
    {
        bool held = false;
        std::vector<std::uint8_t> marks;

        bool
        firstTouch(std::uint64_t k) const
        {
            return !held && marks[k] == kFirst;
        }

        void
        mark(std::uint64_t k)
        {
            if (!held)
                marks[k] = kTouched;
        }
    };

    static constexpr bool kSteadyMapped =
        std::is_same_v<CacheT, DirectMappedCache> ||
        std::is_same_v<CacheT, PrimeMappedCache>;

    /**
     * The last op, its certification phase, and -- once Verified --
     * the per-pass deltas to replay.  `before`/`after` are the
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

    /**
     * Canonical-state tracking (see the file comment): the run X the
     * walker last completed a pass of, and the canonical indices whose
     * line may have been evicted since (duplicates are harmless).
     */
    struct Canonical
    {
        bool held = false;
        VectorRef run;
        std::uint64_t period = 0;
        /** The first canonical index, L - min(P, L). */
        std::uint64_t first = 0;
        /** The canonical lines, lowest first. */
        LineLattice window;
        /** The candidates are candidates[0, logged). */
        std::vector<std::uint64_t> candidates;
        std::size_t logged = 0;
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
        ++paths.memoOps;
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
     * Certify an Armed repeat by its measurement pass.  A solo walk
     * holds the snapshots back until the op's third walk: they cost
     * about a pass, which an op seen only twice in a row never repays,
     * and a solo run may be one of sampling's measurement windows,
     * often just two ops.  (The warmer and gang lanes walk whole
     * traces.)
     *
     * @return true when the op still needs replay()
     */
    bool
    certify(const VectorOp &op)
    {
        if (Lanes == LaneCount::One && !memo.repeated) {
            memo.repeated = true;
            walk(op);
            return false;
        }

        memo.before.clear();
        memo.after.clear();
        bool state_ok = appendOpState(cache, op, memo.before);
        const SimResult c0 = counts;
        const std::uint64_t cold0 = coldStrips;
        const std::uint64_t warm0 = warmStrips;
        const CacheStats s0 = cache.stats();
        walk(op);
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

    /** Strip heads (multiples of the MVL) in [0, n). */
    std::uint64_t
    stripHeads(std::uint64_t n) const
    {
        return (n + opts.mvl - 1) / opts.mvl;
    }

    /**
     * Walk an op element by element, except for a single-stream tail
     * the walker can answer in closed form (cold, or from its first
     * stream's canonical state), and track its first stream.
     */
    void
    walk(const VectorOp &op)
    {
        if constexpr (kSteadyMapped) {
            // Strips from h on are past the second stream.
            const std::uint64_t h =
                op.second ? stripHeads(op.second->length) * opts.mvl : 0;
            if (op.second && h < op.first.length) {
                if (coldTail(op, h))
                    return;
                if (holds(op.first) && canonicalFits(h)) {
                    stripLoop<true>(op, h, canon.first > 0);
                    canonicalFrom(h);
                    ++paths.closedTails;
                    return;
                }
            }
            // A complete single-stream pass leaves its run canonical
            // with no candidate; a complete pass with a second stream
            // logs nothing (see stripLoop()), so it leaves no state.
            if (op.second)
                canon.held = false;
            else
                track(op.first);
        }
        stripLoop<false>(op, op.first.length);
    }

    /**
     * Start tracking `ref`, with no candidates, ahead of a complete
     * pass of it; stop tracking when it does not qualify.
     */
    void
    track(const VectorRef &ref)
    {
        canon.held = false;
        canon.logged = 0;
        if (cache.addressLayout().offsetBits() != 0 || ref.length == 0 ||
            !spansWithoutWrap(ref.base, ref.stride, ref.length))
            return;
        const std::uint64_t period =
            steadyRunPeriod(cache.numLines(), ref.stride);
        const std::uint64_t count = std::min(period, ref.length);
        canon.held = true;
        canon.run = ref;
        canon.period = period;
        canon.first = ref.length - count;
        canon.window = LineLattice::of(
            ref.element(ref.stride < 0 ? ref.length - 1 : canon.first),
            magnitude(ref.stride), count);
    }

    /** True when the walker holds `ref`'s canonical state. */
    bool
    holds(const VectorRef &ref) const
    {
        return canon.held && canon.run == ref;
    }

    /**
     * The eviction log of one strip loop (see stripLoop()), in locals
     * so the hot loop keeps it in registers: the tag array's byte-wide
     * stores may alias any member.  Evicted lines alternate between
     * the run's and others', so the append is branch-free: the slot is
     * written either way and kept only for a canonical line.
     */
    struct EvictionLog
    {
        LineLattice window;
        /** The canonical index of window.lo, and its step per line. */
        std::uint64_t origin = 0;
        std::uint64_t sign = 1;
        std::uint64_t *slots = nullptr;
        std::size_t logged = 0;

        VCACHE_ALWAYS_INLINE void
        note(Addr line)
        {
            const std::uint64_t t = window.indexOf(line);
            slots[logged] = origin + sign * t;
            logged += t != LineLattice::kNone;
        }
    };

    /** Open the log with room for `reads` more entries. */
    EvictionLog
    openLog(std::uint64_t reads)
    {
        EvictionLog log;
        if (!canon.held)
            return log;
        std::vector<std::uint64_t> &c = canon.candidates;
        const VectorRef &x = canon.run;
        // Bound the list by the window: drop duplicates once it holds
        // twice as many entries.
        if (canon.logged > 2 * (x.length - canon.first)) {
            std::sort(c.begin(), c.begin() + canon.logged);
            canon.logged = static_cast<std::size_t>(
                std::unique(c.begin(), c.begin() + canon.logged) -
                c.begin());
        }
        if (c.size() < canon.logged + reads)
            c.resize(canon.logged + reads);
        log.window = canon.window;
        log.origin = x.stride < 0 ? x.length - 1 : canon.first;
        log.sign = x.stride < 0 ? ~std::uint64_t{0} : 1;
        log.slots = c.data();
        log.logged = canon.logged;
        return log;
    }

    /**
     * Whether the canonical closed form can answer elements [h, L) of
     * the held run: no flagged frame, and under non-blocking misses
     * (clock-coupled) no miss at all -- a whole pass (h = 0) within
     * one period, with no candidate.
     */
    bool
    canonicalFits(std::uint64_t h) const
    {
        const VectorRef &x = canon.run;
        return !cache.anyFlagged() &&
               (!opts.nonBlocking ||
                (h == 0 && canon.logged == 0 &&
                 (x.stride == 0 || x.length <= canon.period)));
    }

    /**
     * Answer a single-stream op in closed form when the walker holds
     * its canonical state (a repeat, or a re-walk after a
     * double-stream op).
     *
     * @return false, having done nothing, otherwise
     */
    bool
    canonicalPass(const VectorRef &ref)
    {
        if constexpr (kSteadyMapped) {
            if (holds(ref) && canonicalFits(0)) {
                canonicalFrom(0);
                return true;
            }
        }
        return false;
    }

    /**
     * Elements [h, L) of the held run X, from its canonical state (see
     * the file comment); h is a strip head.  Leaves X canonical, with
     * the candidates below h still listed.
     */
    void
    canonicalFrom(std::uint64_t h)
    {
        CacheT &cache = this->cache;
        const VectorRef &x = canon.run;
        const std::uint64_t n = x.length;
        const std::uint64_t p = canon.period;
        std::uint64_t hits = n - h;
        std::uint64_t warm = stripHeads(n) - stripHeads(h);
        if (x.stride != 0) {
            const std::uint64_t lo = std::max(h, canon.first);
            const std::uint64_t hi = std::min(n, h + p);
            hits = hi > lo ? hi - lo : 0;
            warm = hi > lo ? stripHeads(hi) - stripHeads(lo) : 0;
        }
        // Candidate j's class is first visited at i = j - q*P, and as j
        // lies in the last period, q is one of two values: no division
        // per candidate.
        const std::uint64_t q_hi = (n - 1 - h) / p;
        const std::uint64_t split = h + q_hi * p;
        std::size_t kept = 0;
        for (std::size_t k = 0; k < canon.logged; ++k) {
            const std::uint64_t j = canon.candidates[k];
            if (j < h) {
                canon.candidates[kept++] = j;
                continue;
            }
            const std::uint64_t q = j >= split ? q_hi : q_hi - 1;
            const std::uint64_t i = j - q * p;
            const bool assumed = x.stride == 0 || q == 0;
            // The class ends holding line(j): one probe reads the
            // first visit and places it when the two coincide.
            bool hit = false;
            if (q == 0) {
                hit = probeLine(cache, x.element(j)).hit;
            } else {
                hit = containsWord(cache, x.element(i));
                probeLine(cache, x.element(j));
            }
            if (hit != assumed) {
                hits = hit ? hits + 1 : hits - 1;
                if (i % opts.mvl == 0)
                    warm = hit ? warm + 1 : warm - 1;
            }
        }
        canon.logged = kept;

        const std::uint64_t count = n - h;
        const std::uint64_t misses = count - hits;
        const std::uint64_t strips = stripHeads(n) - stripHeads(h);
        counts.results += count;
        counts.hits += hits;
        counts.misses += misses;
        coldStrips += strips - warm;
        warmStrips += warm;
        sink().add({.coldStrips = strips - warm,
                    .warmStrips = warm,
                    .hits = hits,
                    .blocking = misses});
        // Every miss displaces a valid line, without a flag.
        CacheStats delta;
        delta.accesses = count;
        delta.reads = count;
        delta.hits = hits;
        delta.misses = misses;
        delta.evictions = misses;
        cache.applyStatsDelta(delta);
    }

    static std::uint64_t
    magnitude(std::int64_t stride)
    {
        return stride < 0 ? 0 - static_cast<std::uint64_t>(stride)
                          : static_cast<std::uint64_t>(stride);
    }

    /**
     * True when no line of `ref` was ever touched (see the file
     * comment's cold pass): a non-zero stride of at least a line, no
     * wrap, and a line extent disjoint from the first-touch set's.
     */
    bool
    provablyCold(const VectorRef &ref) const
    {
        const AddressLayout &layout = cache.addressLayout();
        if (ref.length == 0 || magnitude(ref.stride) < layout.lineWords() ||
            !spansWithoutWrap(ref.base, ref.stride, ref.length))
            return false;
        const Addr head = layout.lineAddress(ref.base);
        const Addr tail = layout.lineAddress(ref.element(ref.length - 1));
        return touched.disjoint(std::min(head, tail),
                                std::max(head, tail));
    }

    /** True when every live lane can time `ref` by issueStripRun(). */
    bool
    lanesIssueRun(const VectorRef &ref) const
    {
        if constexpr (Lanes != LaneCount::Zero) {
            for (const CcLane &l : lanes)
                if (!l.dead && !l.memory.canIssueStripRun(
                                   l.coldStrip, ref.base, ref.stride,
                                   ref.length))
                    return false;
        }
        return true;
    }

    /**
     * The closed-form cold pass of a single-stream op.
     *
     * @return false, having done nothing, when the op does not qualify
     */
    bool
    coldPass(const VectorOp &op)
    {
        if (op.second || !provablyCold(op.first) ||
            !lanesIssueRun(op.first))
            return false;
        if constexpr (kSteadyMapped)
            track(op.first);
        coldFill(op.first);
        return true;
    }

    /**
     * A cold double-stream tail (see the file comment): a first stream
     * cold at op start, whose tail from strip head h the second
     * stream's reads -- its first min(L2, L) elements, all in the head
     * -- do not meet.  Walks the head and fills the tail.
     *
     * @return false, having done nothing, when the op does not qualify
     */
    bool
    coldTail(const VectorOp &op, std::uint64_t h)
    {
        const VectorRef &x = op.first;
        const VectorRef &y = *op.second;
        const VectorRef tail{x.element(h), x.stride, x.length - h};
        const std::uint64_t read = std::min(y.length, x.length);
        if (cache.anyFlagged() || cache.addressLayout().offsetBits() != 0 ||
            !provablyCold(x) || !lanesIssueRun(tail) ||
            !spansWithoutWrap(y.base, y.stride, read) ||
            progressionsMeet(tail.base, tail.stride, tail.length, y.base,
                             y.stride, read))
            return false;
        track(x);
        stripLoop<true>(op, h, false);
        coldFill(tail);
        ++paths.coldTails;
        return true;
    }

    /**
     * Fill a run every line of which is provably cold and time it on
     * each live lane.  Every resident line the walk can read is in the
     * first-touch set (a live-point seeds the lines its window can
     * re-read), so each read misses the cache and is a compulsory
     * miss; every strip then starts cold and every element issues at
     * its bank as in an MM strip, so the functional work is one fill
     * loop and each live lane's timing is
     * InterleavedMemory::issueStripRun().
     */
    void
    coldFill(const VectorRef &ref)
    {
        const AddressLayout &layout = cache.addressLayout();
        const Addr head = layout.lineAddress(ref.base);
        const Addr tail =
            layout.lineAddress(ref.element(ref.length - 1));
        // One-word lines: the lines are the run itself, one record.
        const bool one_word = layout.lineWords() == 1;
        if (one_word)
            touched.insertRun(std::min(head, tail), magnitude(ref.stride),
                              ref.length);
        bool all_missed = true;
        if (kSteadyMapped && one_word) {
            if constexpr (kSteadyMapped)
                all_missed = cache.fillMissingRun(ref.base, ref.stride,
                                                  ref.length);
        } else {
            CacheT &cache = this->cache;
            Addr a = ref.base;
            for (std::uint64_t i = 0; i < ref.length; ++i) {
                const Addr line = layout.lineAddress(a);
                const AccessOutcome outcome = probeLine(cache, line);
                all_missed &= !outcome.hit;
                cache.recordAccess(outcome, AccessType::Read);
                if (!one_word)
                    touched.insert(line);
                a += static_cast<std::uint64_t>(ref.stride);
            }
        }
        vc_assert(all_missed, "a cold pass hit a line outside the "
                              "first-touch set");
        if constexpr (Lanes == LaneCount::Zero) {
            if (firstTouchOrder)
                for (std::uint64_t i = 0; i < ref.length; ++i)
                    firstTouchOrder->push_back(
                        layout.lineAddress(ref.element(i)));
        }
        walkedElements += ref.length;
        counts.results += ref.length;
        counts.misses += ref.length;
        counts.compulsoryMisses += ref.length;

        if constexpr (Lanes != LaneCount::Zero) {
            flush();
            for (CcLane &l : lanes)
                if (!l.dead)
                    l.memory.issueStripRun(l.coldStrip, opts.mvl,
                                           ref.base, ref.stride,
                                           ref.length, l.clock, l.stall);
        }
    }

    /**
     * Walk one gang, from first-stream element k, by its exact hit
     * mask: credit each run of hits in bulk and read only the misses,
     * in issue order.
     */
    template <bool Classified>
    void
    walkExactMask(CacheT &cache, const AddressLayout &layout, Addr a,
                  std::int64_t stride, std::uint32_t hits, unsigned g,
                  std::uint64_t k)
    {
        ++paths.exactMaskGangs;
        for (unsigned j = 0; j < g; ++j) {
            const unsigned run =
                static_cast<unsigned>(std::countr_one(hits >> j));
            if (run != 0) {
                creditHits(cache, run);
                j += run;
                a += static_cast<std::uint64_t>(stride) * run;
                if (j == g)
                    break;
            }
            EvictionLog none;
            access<false, Classified>(cache, layout, a,
                                      StreamOperand::First, false, none,
                                      k + j);
            a += static_cast<std::uint64_t>(stride);
        }
    }

    /** Credit n inert read hits in bulk. */
    void
    creditHits(CacheT &cache, unsigned n)
    {
        cache.recordReadHits(n);
        counts.hits += n;
        paths.gangHits += n;
        sink().add({.hits = n});
    }

    /** The lines [first, last] of `ref`'s first n elements. */
    std::pair<Addr, Addr>
    lineExtent(const VectorRef &ref, std::uint64_t n) const
    {
        if (n == 0)
            return {~Addr{0}, 0};
        if (!spansWithoutWrap(ref.base, ref.stride, n))
            return {0, ~Addr{0}};
        const AddressLayout &layout = cache.addressLayout();
        const Addr head = layout.lineAddress(ref.base);
        const Addr tail = layout.lineAddress(ref.element(n - 1));
        return {std::min(head, tail), std::max(head, tail)};
    }

    /**
     * Whether a walk's reads can be classified (see the file
     * comment): the paper's mappings with one-word lines, a non-zero
     * stride and no wrap on each stream, no hashed line in either
     * stream's reach, and enough reads to repay it.
     */
    bool
    classifiable(const VectorOp &op, std::uint64_t end,
                 std::uint64_t second_reads) const
    {
        if constexpr (!kSteadyMapped || kElementWise)
            return false;
        const auto fits = [this](const VectorRef &ref, std::uint64_t n) {
            const auto [first, last] = lineExtent(ref, n);
            return ref.stride != 0 &&
                   spansWithoutWrap(ref.base, ref.stride, n) &&
                   touched.hashedDisjoint(first, last);
        };
        return end + second_reads >= kMinClassifiedReads &&
               opts.fastPaths &&
               cache.addressLayout().offsetBits() == 0 &&
               fits(op.first, end) &&
               (second_reads == 0 || fits(*op.second, second_reads));
    }

    /**
     * Classify the first-touch answer of each read of a walk over the
     * first `end` elements of the first stream and `second_reads` of
     * the second (see the file comment), into firstTouches and
     * secondTouches.
     *
     * @return false, having done nothing, when the walk does not
     *         qualify
     */
    bool
    classify(const VectorOp &op, std::uint64_t end,
             std::uint64_t second_reads)
    {
        if (!classifiable(op, end, second_reads))
            return false;
        ++paths.classifiedOps;
        markTouched(op.first, end, firstTouches);
        if (second_reads == 0)
            return true;
        const VectorRef &y = *op.second;
        markTouched(y, second_reads, secondTouches);
        // x_i == y_k: the later of the two reads is not a first touch,
        // and x_i issues first when i <= k.
        const ProgressionMeets m =
            progressionMeets(op.first.base, op.first.stride, end, y.base,
                             y.stride, second_reads);
        std::uint64_t i = m.i0;
        std::uint64_t k = m.k0;
        for (std::uint64_t u = 0; u < m.count; ++u, i += m.di, k += m.dk) {
            if (i <= k)
                secondTouches.mark(k);
            else
                firstTouches.mark(i);
        }
        return true;
    }

    /**
     * Mark each of `ref`'s first n reads whose line a run record
     * holds: all of them at once, with no mark, when one record holds
     * the whole stream.
     */
    void
    markTouched(const VectorRef &ref, std::uint64_t n, StreamTouches &t)
    {
        const auto [first, last] = lineExtent(ref, n);
        const std::uint64_t step = magnitude(ref.stride);
        const std::span<const FirstTouchSet::Run> records =
            touched.records();
        t.held = std::any_of(records.begin(), records.end(),
                             [&](const FirstTouchSet::Run &r) {
                                 return r.holds(first, step, n);
                             });
        if (t.held)
            return;
        t.marks.assign(n, kFirst);
        for (const FirstTouchSet::Run &r : records) {
            if (r.hi() < first || r.lo > last)
                continue;
            const ProgressionMeets m = progressionMeets(
                ref.base, ref.stride, n, r.lo, r.step, r.count);
            std::uint64_t i = m.i0;
            for (std::uint64_t u = 0; u < m.count; ++u, i += m.di)
                t.marks[i] = kTouched;
        }
    }

    /**
     * Ask the first-touch set about a read of an unclassified walk,
     * scoping the set to the walk's reach at its first miss.
     */
    VCACHE_ALWAYS_INLINE bool
    hashRead(Addr line)
    {
        return touched.scopeEmpty() ? touched.insertUnscoped(line)
                                    : hashScoped(line);
    }

    /** hashRead() with records in scope, or a scope to build. */
    [[gnu::noinline]] bool
    hashScoped(Addr line)
    {
        if (touched.scopeStale()) {
            const VectorOp &op = *hashed.op;
            auto [first, last] = lineExtent(op.first, hashed.end);
            if (hashed.secondReads != 0) {
                const auto [f2, l2] =
                    lineExtent(*op.second, hashed.secondReads);
                first = std::min(first, f2);
                last = std::max(last, l2);
            }
            touched.scopeTo(first, last);
        }
        return touched.insertScoped(line);
    }

    /** Record a classified stream that read a line first. */
    void
    recordStream(const VectorRef &ref, const StreamTouches &t)
    {
        if (t.held ||
            std::find(t.marks.begin(), t.marks.end(), kFirst) ==
                t.marks.end())
            return;
        const std::uint64_t n = t.marks.size();
        touched.insertRun(lineExtent(ref, n).first, magnitude(ref.stride),
                          n);
    }

    /**
     * One op's strip-mined element loop, with the gang probe, over its
     * first `end` elements (a strip head, or the whole op), its first
     * touches classified up front when classify() takes the walk.
     *
     * `Log` walks the head of a tail the walker answers next (closed
     * or cold), logging the evictions of its second-stream reads, and
     * of its first-stream reads when `log_first`.  A first-stream read
     * evicts a canonical line of its own run only before that line's
     * read, which a complete pass repairs; so a cold tail, which
     * completes the pass, logs its second stream alone.  Every other
     * walk logs nothing: its hot loop is the plain element loop.
     */
    template <bool Log>
    void
    stripLoop(const VectorOp &op, std::uint64_t end,
              bool log_first = false)
    {
        const std::uint64_t second_reads =
            op.second ? std::min(op.second->length, end) : 0;
        EvictionLog log;
        if constexpr (Log)
            log = openLog((log_first ? end : 0) + second_reads);
        walkedElements += end;
        if constexpr (kSteadyMapped && !kElementWise) {
            if (end + second_reads >= kMinClassifiedReads &&
                classify(op, end, second_reads)) {
                walkStrips<Log, true>(op, end, second_reads, log_first,
                                      log);
                recordStream(op.first, firstTouches);
                if (second_reads != 0)
                    recordStream(*op.second, secondTouches);
                return;
            }
        }
        hashed = {&op, end, second_reads};
        touched.unscope();
        walkStrips<Log, false>(op, end, second_reads, log_first, log);
    }

    /**
     * stripLoop()'s element loop; `Classified` picks its first
     * touches.  The strips that read both streams come first, then the
     * single-stream strips, the only ones probed: two loops, each kept
     * small enough to stay tight.
     */
    template <bool Log, bool Classified>
    void
    walkStrips(const VectorOp &op, std::uint64_t end,
               std::uint64_t second_reads, bool log_first, EvictionLog log)
    {
        std::uint64_t split = 0;
        if (second_reads != 0)
            log = doubleStrips<Log, Classified>(op, end, second_reads,
                                                log_first, log, split);
        if (split < end)
            log = singleStrips<Log, Classified>(op.first, split, end,
                                                log_first, log);
        if constexpr (Log)
            canon.logged = log.logged;
    }

    /** Count strip `ref`[done]'s start-up; @return its head's residency. */
    bool
    stripStart(const VectorRef &ref, std::uint64_t done)
    {
        const bool warm = containsWord(cache, ref.element(done));
        if (warm) {
            ++warmStrips;
            sink().add({.warmStrips = 1});
        } else {
            ++coldStrips;
            sink().add({.coldStrips = 1});
        }
        return warm;
    }

    /**
     * The strips below `end` that read both streams, in issue order;
     * `split` receives the first strip past them.  The log is passed
     * by value, so the hot loop keeps it in registers.
     *
     * @return the log after the strips
     */
    template <bool Log, bool Classified>
    [[gnu::noinline]] EvictionLog
    doubleStrips(const VectorOp &op, std::uint64_t end,
                 std::uint64_t second_reads, bool log_first,
                 EvictionLog log, std::uint64_t &split)
    {
        // Locals, not members: the tag array's byte-wide stores may
        // alias any member, which would force reloads per element.
        CacheT &cache = this->cache;
        const AddressLayout &layout = cache.addressLayout();
        const std::int64_t s1 = op.first.stride;
        const std::int64_t s2 = op.second->stride;
        std::uint64_t done = 0;
        for (; done < end && done < second_reads; done += opts.mvl) {
            stripStart(op.first, done);
            const std::uint64_t count =
                std::min<std::uint64_t>(opts.mvl, op.first.length - done);
            // The second stream may end inside the strip.
            const std::uint64_t pairs =
                std::min(count, second_reads - done);
            Addr a1 = op.first.element(done);
            Addr a2 = op.second->element(done);
            for (std::uint64_t j = 0; j < count; ++j) {
                access<Log, Classified>(cache, layout, a1,
                                        StreamOperand::First, log_first,
                                        log, done + j);
                a1 = static_cast<Addr>(static_cast<std::int64_t>(a1) + s1);
                if (j < pairs) {
                    access<Log, Classified>(cache, layout, a2,
                                            StreamOperand::Second, true,
                                            log, done + j);
                    a2 = static_cast<Addr>(static_cast<std::int64_t>(a2) +
                                           s2);
                }
            }
            counts.results += count;
        }
        split = done;
        return log;
    }

    /**
     * Single-stream strips [from, end) of `x`, with the gang probe.
     *
     * @return the log after the strips (see doubleStrips())
     */
    template <bool Log, bool Classified>
    [[gnu::noinline]] EvictionLog
    singleStrips(const VectorRef &x, std::uint64_t from, std::uint64_t end,
                 bool log_first, EvictionLog log)
    {
        CacheT &cache = this->cache;
        const AddressLayout &layout = cache.addressLayout();
        const std::int64_t s1 = x.stride;
        bool gang_probe = false;
        if constexpr (!kElementWise)
            gang_probe = opts.fastPaths && cache.readHitsAreInert();
        // Exact masks (see the file comment): a single-stream gang
        // shorter than the frame period has no two elements in one
        // frame, so its misses cannot change the other elements'
        // outcomes and the probe's mask holds across the whole gang.
        bool exact_mask = false;
        if constexpr (kSteadyMapped)
            exact_mask = gang_probe && layout.offsetBits() == 0 &&
                         spansWithoutWrap(x.base, s1, x.length) &&
                         steadyRunPeriod(cache.numLines(), s1) >= kGang;
        const std::uint64_t max_g = gang_probe ? kGang : opts.mvl;
        for (std::uint64_t done = from; done < end; done += opts.mvl) {
            const bool warm = stripStart(x, done);
            const std::uint64_t count =
                std::min<std::uint64_t>(opts.mvl, x.length - done);
            Addr a1 = x.element(done);
            for (std::uint64_t i = 0; i < count;) {
                const unsigned g = static_cast<unsigned>(
                    std::min<std::uint64_t>(max_g, count - i));
                const std::uint64_t k = done + i;
                // The probe is side-effect-free and hits are inert, so
                // an all-hit gang of g reads is exactly g hit
                // iterations.  A gang whose head misses is likely to
                // miss throughout, so skip its probe; at the strip head
                // `warm` already holds that residency.
                const bool probed =
                    gang_probe && (i == 0 ? warm : containsWord(cache, a1));
                const std::uint32_t hits =
                    probed ? probeStrideGang(cache, a1, s1, g) : 0;
                if (probed && hits == simd::fullMask(g)) {
                    creditHits(cache, g);
                } else if (probed && exact_mask) {
                    walkExactMask<Classified>(cache, layout, a1, s1, hits,
                                              g, k);
                } else {
                    // Element-at-a-time replay in issue order.
                    Addr a = a1;
                    for (unsigned j = 0; j < g; ++j) {
                        access<Log, Classified>(cache, layout, a,
                                                StreamOperand::First,
                                                log_first, log, k + j);
                        a = static_cast<Addr>(
                            static_cast<std::int64_t>(a) + s1);
                    }
                }
                a1 = static_cast<Addr>(static_cast<std::int64_t>(a1) +
                                       s1 * g);
                counts.results += g;
                i += g;
            }
        }
        return log;
    }

    /**
     * One element read, the k-th of its stream; its eviction goes to
     * `log` when `logged`.
     */
    template <bool Log, bool Classified>
    VCACHE_ALWAYS_INLINE void
    access(CacheT &cache, const AddressLayout &layout, Addr addr,
           StreamOperand operand, bool logged, EvictionLog &log,
           std::uint64_t k)
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
        // A miss reads the walk's classification, or asks the set.
        bool first_touch = false;
        if constexpr (Classified)
            first_touch = (operand == StreamOperand::First ? firstTouches
                                                          : secondTouches)
                              .firstTouch(k);
        else
            first_touch = hashRead(line);
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
        if constexpr (Log) {
            if (logged && outcome.evicted)
                log.note(outcome.evictedLine);
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
    VCACHE_ALWAYS_INLINE void
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
    FirstTouchSet &touched;
    std::span<CcLane> lanes;
    CcWalkOptions opts;
    Observer &obs;
    CcSoloState *solo;
    /** Many lanes: countable events not yet flushed into them. */
    CcEvents pending;
    /** Strips walked, for the memo's measurement pass. */
    std::uint64_t coldStrips = 0;
    std::uint64_t warmStrips = 0;
    Memo memo;
    Canonical canon;
    /** Which path answered each op (see pathCounts()). */
    CcPathCounts paths;
    std::size_t hashedAtStart;
    /** An unclassified walk's reads, scoped at its first miss. */
    struct HashedWalk
    {
        const VectorOp *op = nullptr;
        std::uint64_t end = 0;
        std::uint64_t secondReads = 0;
    };
    HashedWalk hashed;
    /** A classified walk's answers, per stream. */
    StreamTouches firstTouches;
    StreamTouches secondTouches;
};

} // namespace vcache

#endif // VCACHE_SIM_CC_WALKER_HH
