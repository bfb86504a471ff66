/**
 * @file
 * Abstract cache interface shared by every mapping scheme.
 *
 * All caches in this library are functional (contents are not stored,
 * only tags) and allocate on both read and write misses, matching the
 * vector-data cache of the paper's CC-model.  Timing is layered on top
 * by src/sim.
 *
 * Per-line metadata that earlier revisions kept in side hash sets
 * (write-back dirty state, prefetched-but-untouched marks) now lives
 * as flag bits on the tag array itself: a frame's flags travel with
 * its line and are returned in AccessOutcome::evictedFlags when the
 * line is displaced, so the bookkeeping costs no extra probes and no
 * allocations on the access path.
 *
 * The demand path (access/insert) is defined inline here, and the tag
 * probe (lookupAndFill) is public, so that code specialised on a
 * `final` concrete cache type -- the simulators' hot loops -- compiles
 * to direct, inlinable calls with no virtual dispatch.
 */

#ifndef VCACHE_CACHE_CACHE_HH
#define VCACHE_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "address/fields.hh"
#include "cache/stats.hh"
#include "numtheory/gcd.hh"
#include "util/types.hh"

namespace vcache
{

/** Read or write; both allocate on miss. */
enum class AccessType
{
    Read,
    Write,
};

/**
 * Period of the frame-index sequence of a stride-`stride` run on a
 * modulo-`frames` mapping: (base + i*stride) mod frames repeats every
 * frames / gcd(|stride| mod frames, frames) elements -- the paper's
 * "number of lines visited" quantity, reused here to bound how much
 * cache state a run can touch.  stride == 0 gives period 1.
 */
inline std::uint64_t
steadyRunPeriod(std::uint64_t frames, std::int64_t stride)
{
    return frames / gcd(floorMod(stride, frames), frames);
}

/** Result of one cache access. */
struct AccessOutcome
{
    bool hit;
    /** A valid line was displaced by this fill. */
    bool evicted;
    /** Line address of the displaced line (valid if evicted). */
    Addr evictedLine;
    /** Frame-flag bits (Cache::kDirtyFlag, ...) of the displaced line. */
    std::uint8_t evictedFlags = 0;
};

/** Common base class: stats plumbing plus the tag-array interface. */
class Cache
{
  public:
    /**
     * Per-frame metadata bits.  kDirtyFlag implements the write-back
     * bookkeeping (the paper's write-buffer assumption makes stores
     * free in *time*; the dirty bit makes the resulting memory
     * *traffic* visible as stats().writebacks).  kPrefetchedFlag
     * marks lines brought in by a prefetcher and not yet demand-used
     * (tagged-retrigger and accuracy accounting).
     */
    static constexpr std::uint8_t kDirtyFlag = 0x1;
    static constexpr std::uint8_t kPrefetchedFlag = 0x2;

    /**
     * @param layout address layout (offset width defines line size)
     * @param name human-readable identifier for reports
     */
    Cache(const AddressLayout &layout, std::string name);
    virtual ~Cache() = default;

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Perform one access at a word address. */
    AccessOutcome
    access(Addr word_addr, AccessType type = AccessType::Read)
    {
        const Addr line = layout_.lineAddress(word_addr);
        const AccessOutcome outcome = lookupAndFill(line);
        recordAccess(outcome, type);
        if (type == AccessType::Write)
            setLineFlag(line, kDirtyFlag);
        return outcome;
    }

    /**
     * Fill the word's line without recording a demand access --
     * the entry point for prefetchers.  Eviction behaviour is the
     * same as a demand fill; only the hit/miss counters are left
     * untouched (prefetch traffic is accounted by the prefetcher).
     *
     * @return true if the line was newly brought in (it missed)
     */
    bool
    insert(Addr word_addr)
    {
        const AccessOutcome outcome =
            lookupAndFill(layout_.lineAddress(word_addr));
        recordFill(outcome);
        return !outcome.hit;
    }

    /** Count a demand-access outcome into the stats block. */
    VCACHE_ALWAYS_INLINE void
    recordAccess(const AccessOutcome &outcome, AccessType type)
    {
        ++stats_.accesses;
        if (type == AccessType::Read)
            ++stats_.reads;
        else
            ++stats_.writes;
        if (outcome.hit) {
            ++stats_.hits;
            return;
        }
        ++stats_.misses;
        if (outcome.evicted) {
            ++stats_.evictions;
            if (outcome.evictedFlags & kDirtyFlag)
                ++stats_.writebacks;
        }
    }

    /**
     * Credit the counters of a whole batch of accesses resolved
     * without touching the tag array -- the run-batched simulator's
     * extrapolation step, replaying a stats delta it measured (or
     * derived in closed form) from an element-wise pass that provably
     * left the cache state unchanged.
     */
    void
    applyStatsDelta(const CacheStats &delta)
    {
        stats_.accesses += delta.accesses;
        stats_.reads += delta.reads;
        stats_.writes += delta.writes;
        stats_.hits += delta.hits;
        stats_.misses += delta.misses;
        stats_.evictions += delta.evictions;
        stats_.writebacks += delta.writebacks;
    }

    /** Count a prefetch-fill outcome (write-back traffic only). */
    void
    recordFill(const AccessOutcome &outcome)
    {
        if (!outcome.hit && outcome.evicted &&
            (outcome.evictedFlags & kDirtyFlag))
            ++stats_.writebacks;
    }

    /**
     * Look up a line address; fill it (possibly evicting) on a miss.
     * Filling clears the frame's flags; an eviction reports the old
     * flags in AccessOutcome::evictedFlags.  Public (rather than a
     * protected implementation detail) so the devirtualized simulator
     * fast path can bind it statically; almost every other caller
     * wants access()/insert(), which add the stats accounting.
     *
     * @param line_addr full line address (word address >> W)
     * @return outcome with hit/eviction details
     */
    virtual AccessOutcome lookupAndFill(Addr line_addr) = 0;

    /** True if the line is currently resident (no side effect). */
    virtual bool containsLine(Addr line_addr) const = 0;

    /** True if the word's line is currently resident (no side effect). */
    bool
    contains(Addr word_addr) const
    {
        return containsLine(layout_.lineAddress(word_addr));
    }

    /**
     * Side-effect-free gang residency probe: bit i of the result is
     * set iff lines[i] is resident, for i < n (n <= simd::kMaxGang).
     * The base implementation is the scalar loop; the direct-style
     * mappings override it with the dispatched SIMD gang probe over
     * their structure-of-arrays tag plane.
     */
    virtual std::uint32_t
    probeHitMask(const Addr *lines, unsigned n) const
    {
        std::uint32_t hits = 0;
        for (unsigned i = 0; i < n; ++i)
            hits |= static_cast<std::uint32_t>(containsLine(lines[i]))
                    << i;
        return hits;
    }

    /**
     * probeHitMask() over the constant-stride gang of word addresses
     * base + i*stride (i < n, n <= simd::kMaxGang; mod-2^64 wrap like
     * VectorRef::element): bit i set iff that element's line is
     * resident.  The direct-style overrides run the fused SIMD
     * stride-probe kernel, which never materialises the line vector.
     */
    virtual std::uint32_t
    probeStrideHitMask(Addr base, std::int64_t stride,
                       unsigned n) const
    {
        std::uint32_t hits = 0;
        for (unsigned i = 0; i < n; ++i) {
            const Addr word = static_cast<Addr>(
                base + static_cast<std::uint64_t>(stride) * i);
            hits |= static_cast<std::uint32_t>(
                        containsLine(layout_.lineAddress(word)))
                    << i;
        }
        return hits;
    }

    /**
     * True when a read hit leaves the cache (tags, flags, replacement
     * state) completely unchanged, so a group of accesses that all
     * hit can be credited in bulk (recordReadHits) without replaying
     * them.  Direct-style mappings qualify; anything with replacement
     * state mutated on hit (LRU set-associative organizations) does
     * not.
     */
    virtual bool readHitsAreInert() const { return false; }

    /**
     * Bulk stats credit for n read hits on an inert cache: exactly n
     * recordAccess() calls with a hit outcome, folded together.
     */
    void
    recordReadHits(std::uint64_t n)
    {
        stats_.accesses += n;
        stats_.reads += n;
        stats_.hits += n;
    }

    /** Set flag bits on the resident frame holding `line_addr`; no-op
     *  when the line is not resident. */
    virtual void setLineFlag(Addr line_addr, std::uint8_t flag) = 0;

    /** True if the line is resident with all `flag` bits set. */
    virtual bool testLineFlag(Addr line_addr,
                              std::uint8_t flag) const = 0;

    /** Clear flag bits; @return true if the line was resident with
     *  any of them set. */
    virtual bool clearLineFlag(Addr line_addr, std::uint8_t flag) = 0;

    /** Invalidate all lines and clear statistics. */
    virtual void reset();

    /** Total number of cache lines. */
    virtual std::uint64_t numLines() const = 0;

    /** Number of currently valid lines. */
    virtual std::uint64_t validLines() const = 0;

    /**
     * Frame/set index the line address maps to: the quantity per-set
     * conflict observability histograms over.  For direct-style
     * organizations this is the frame number; for set-associative
     * ones, the set number.
     */
    virtual std::uint64_t frameIndex(Addr line_addr) const = 0;

    /** Number of distinct frameIndex() values (histogram domain). */
    virtual std::uint64_t numSets() const { return numLines(); }

    /**
     * Serialize, into `out`, everything a constant-stride run `base +
     * i*stride` (word addresses, i < length) could consult or mutate:
     * for each element in access order, the frame/set it indexes and
     * that frame's (valid, line, flags) tuple -- plus, for associative
     * organizations, the replacement state reduced to within-set
     * ranks (absolute policy clocks advance monotonically; only the
     * order ever influences a victim choice).
     *
     * Two equal serializations therefore guarantee the cache behaves
     * identically on any future access sequence confined to the run's
     * addresses: the contract behind the batched simulator's
     * snapshot/verify/extrapolate tier (see docs in sim/cc_sim.hh).
     *
     * @return false when the organization cannot serialize its run
     *         state (callers must then fall back to element-wise
     *         replay); every scheme in this library returns true
     */
    virtual bool
    appendRunState(Addr, std::int64_t, std::uint64_t,
                   std::vector<std::uint64_t> &) const
    {
        return false;
    }

    /**
     * Serialize the complete tag-array state -- every frame's (valid,
     * line, flags) plus, for associative organizations, the exact
     * replacement-policy state (absolute clocks, RNG stream position)
     * -- into a flat word vector: the sampling engine's live-point
     * snapshot.  Unlike appendRunState() this is a *resume* format,
     * not a canonicalized comparison key: restoreState() on a
     * same-geometry cache reproduces the captured cache behaviour
     * bit-for-bit, including future Random-policy victim draws.
     * Statistics counters are not part of the snapshot.
     */
    virtual void
    captureState(std::vector<std::uint64_t> &out) const = 0;

    /**
     * Restore a captureState() snapshot taken from a cache of the
     * same organization and geometry.
     *
     * @return false (cache unchanged) on a geometry/size mismatch
     */
    virtual bool restoreState(const std::vector<std::uint64_t> &blob) = 0;

    /** Fraction of lines valid, the paper's "fraction of cache used". */
    double utilization() const;

    /** Cache capacity in words. */
    std::uint64_t capacityWords() const;

    const CacheStats &stats() const { return stats_; }
    const AddressLayout &addressLayout() const { return layout_; }
    const std::string &name() const { return name_; }

  protected:
    AddressLayout layout_;
    CacheStats stats_;

  private:
    std::string name_;
};

/**
 * Statically-bound tag probe: for a `final` concrete cache type the
 * call resolves at compile time (and inlines); for the base class it
 * falls back to ordinary virtual dispatch.  The simulators' templated
 * hot loops run through these so one implementation serves both the
 * devirtualized fast paths and the generic path.
 */
template <typename CacheT>
VCACHE_ALWAYS_INLINE AccessOutcome
probeLine(CacheT &cache, Addr line_addr)
{
    if constexpr (std::is_final_v<CacheT>)
        return cache.CacheT::lookupAndFill(line_addr);
    else
        return cache.lookupAndFill(line_addr);
}

/** Statically-bound Cache::frameIndex (see probeLine). */
template <typename CacheT>
inline std::uint64_t
frameIndexOf(const CacheT &cache, Addr line_addr)
{
    if constexpr (std::is_final_v<CacheT>)
        return cache.CacheT::frameIndex(line_addr);
    else
        return cache.frameIndex(line_addr);
}

/** Statically-bound Cache::contains (see probeLine). */
template <typename CacheT>
inline bool
containsWord(const CacheT &cache, Addr word_addr)
{
    if constexpr (std::is_final_v<CacheT>)
        return cache.CacheT::containsLine(
            cache.addressLayout().lineAddress(word_addr));
    else
        return cache.contains(word_addr);
}

/** Statically-bound Cache::probeHitMask (see probeLine). */
template <typename CacheT>
inline std::uint32_t
probeGang(const CacheT &cache, const Addr *lines, unsigned n)
{
    if constexpr (std::is_final_v<CacheT>)
        return cache.CacheT::probeHitMask(lines, n);
    else
        return cache.probeHitMask(lines, n);
}

/** Statically-bound Cache::probeStrideHitMask (see probeLine). */
template <typename CacheT>
inline std::uint32_t
probeStrideGang(const CacheT &cache, Addr base, std::int64_t stride,
                unsigned n)
{
    if constexpr (std::is_final_v<CacheT>)
        return cache.CacheT::probeStrideHitMask(base, stride, n);
    else
        return cache.probeStrideHitMask(base, stride, n);
}

/** Statically-bound Cache::setLineFlag (see probeLine). */
template <typename CacheT>
inline void
setFrameFlag(CacheT &cache, Addr line_addr, std::uint8_t flag)
{
    if constexpr (std::is_final_v<CacheT>)
        cache.CacheT::setLineFlag(line_addr, flag);
    else
        cache.setLineFlag(line_addr, flag);
}

/** Statically-bound Cache::clearLineFlag (see probeLine). */
template <typename CacheT>
inline bool
clearFrameFlag(CacheT &cache, Addr line_addr, std::uint8_t flag)
{
    if constexpr (std::is_final_v<CacheT>)
        return cache.CacheT::clearLineFlag(line_addr, flag);
    else
        return cache.clearLineFlag(line_addr, flag);
}

/** Statically-bound Cache::insert over a precomputed line address
 *  (see probeLine). */
template <typename CacheT>
inline bool
fillLine(CacheT &cache, Addr line_addr)
{
    const AccessOutcome outcome = probeLine(cache, line_addr);
    cache.recordFill(outcome);
    return !outcome.hit;
}

/** Statically-bound Cache::access (see probeLine). */
template <typename CacheT>
inline AccessOutcome
accessCache(CacheT &cache, Addr word_addr,
            AccessType type = AccessType::Read)
{
    const Addr line = cache.addressLayout().lineAddress(word_addr);
    const AccessOutcome outcome = probeLine(cache, line);
    cache.recordAccess(outcome, type);
    if (type == AccessType::Write)
        setFrameFlag(cache, line, Cache::kDirtyFlag);
    return outcome;
}

} // namespace vcache

#endif // VCACHE_CACHE_CACHE_HH
