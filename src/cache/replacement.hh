/**
 * @file
 * Replacement policies for the set-associative cache.
 *
 * Section 2.1 observes that serial vector sweeps defeat LRU; the
 * associativity ablation bench therefore compares LRU, FIFO and Random
 * against the prime-mapped cache.
 */

#ifndef VCACHE_CACHE_REPLACEMENT_HH
#define VCACHE_CACHE_REPLACEMENT_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hh"

namespace vcache
{

/** Selects which way of a set to evict. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /**
     * Size the policy state.
     * @param sets number of sets
     * @param ways associativity
     */
    virtual void configure(std::uint64_t sets, unsigned ways) = 0;

    /** Record a hit or fill of (set, way). */
    virtual void touch(std::uint64_t set, unsigned way) = 0;

    /** Record that (set, way) was filled with a new line. */
    virtual void fill(std::uint64_t set, unsigned way) = 0;

    /** Choose a victim way in a full set. */
    virtual unsigned victim(std::uint64_t set) = 0;

    /** Forget everything. */
    virtual void reset() = 0;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Opaque per-way age/recency value for (set, way).  Only the
     * *relative order* of the values within one set is meaningful --
     * victim() decisions compare ways of a set, never absolute
     * clocks -- so callers snapshotting policy state (the batched
     * simulator's fixed-point check) must reduce these to within-set
     * ranks before comparing snapshots taken at different times.
     * Policies without per-way state (Random) return 0 for every way.
     */
    virtual std::uint64_t stateOf(std::uint64_t set,
                                  unsigned way) const = 0;

    /**
     * Global state marker covering whatever stateOf()'s within-set
     * ranks cannot: for Random, the number of RNG draws consumed so
     * far, so two snapshots only compare equal when no victim was
     * drawn between them (extrapolating over skipped draws would
     * desynchronize the RNG stream from an element-wise replay).
     * Policies fully described by their per-way ranks return 0.
     */
    virtual std::uint64_t stateToken() const { return 0; }

    /**
     * Exact snapshot/restore of the policy's full state -- absolute
     * clocks and, for Random, the RNG stream position -- so a
     * restored cache replays victim choices bit-for-bit (the sampling
     * engine's live-points).  Unlike stateOf()'s within-set ranks this
     * is not canonicalized: it is a resume format, not a comparison
     * key.  restoreState() consumes exactly stateWords() words and
     * returns false on a size mismatch.
     */
    virtual std::size_t stateWords() const = 0;
    virtual void captureState(std::vector<std::uint64_t> &out) const = 0;
    virtual bool restoreState(const std::uint64_t *words,
                              std::size_t n) = 0;
};

/**
 * Each set's ways, oldest first, as a doubly linked list per set (the
 * lrulist of an n-way cache), so the oldest way is found in O(1)
 * instead of by a scan of the set.  "Oldest" is the order of per-way
 * stamps from one rising clock, ties (ways never stamped) broken
 * toward the lower way -- exactly the order a scan for the first
 * minimum stamp reads.
 */
class WayOrder
{
  public:
    /** Size for `sets` sets of `ways`, each in way order. */
    void configure(std::uint64_t sets, unsigned ways);

    /** Every set back to way order. */
    void reset();

    /** Make `way` the newest of `set`. */
    void moveToBack(std::uint64_t set, unsigned way);

    /** The oldest way of `set`. */
    unsigned front(std::uint64_t set) const { return head[set]; }

    /** Rebuild every set's order from its ways' stamps. */
    void rebuild(const std::vector<std::uint64_t> &stamps);

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** Link `set`'s ways in the order given. */
    void link(std::uint64_t set, const unsigned *order);

    unsigned ways = 0;
    /** Neighbours of each way, [set * ways + way]; kNil at the ends. */
    std::vector<std::uint32_t> prev;
    std::vector<std::uint32_t> next;
    std::vector<std::uint32_t> head;
    std::vector<std::uint32_t> tail;
};

/** Least recently used. */
class LruPolicy : public ReplacementPolicy
{
  public:
    void configure(std::uint64_t sets, unsigned ways) override;
    void touch(std::uint64_t set, unsigned way) override;
    void fill(std::uint64_t set, unsigned way) override;
    unsigned victim(std::uint64_t set) override;
    void reset() override;
    std::string name() const override { return "LRU"; }

    std::uint64_t
    stateOf(std::uint64_t set, unsigned way) const override
    {
        return lastUse[set * ways + way];
    }

    std::size_t stateWords() const override { return 1 + lastUse.size(); }
    void captureState(std::vector<std::uint64_t> &out) const override;
    bool restoreState(const std::uint64_t *words,
                      std::size_t n) override;

  private:
    unsigned ways = 0;
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> lastUse; // [set * ways + way]
    WayOrder order;
};

/** First in, first out (ignores hits). */
class FifoPolicy : public ReplacementPolicy
{
  public:
    void configure(std::uint64_t sets, unsigned ways) override;
    void touch(std::uint64_t set, unsigned way) override;
    void fill(std::uint64_t set, unsigned way) override;
    unsigned victim(std::uint64_t set) override;
    void reset() override;
    std::string name() const override { return "FIFO"; }

    std::uint64_t
    stateOf(std::uint64_t set, unsigned way) const override
    {
        return fillTime[set * ways + way];
    }

    std::size_t stateWords() const override { return 1 + fillTime.size(); }
    void captureState(std::vector<std::uint64_t> &out) const override;
    bool restoreState(const std::uint64_t *words,
                      std::size_t n) override;

  private:
    unsigned ways = 0;
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> fillTime; // [set * ways + way]
    WayOrder order;
};

/** Uniform random victim, deterministic via explicit seed. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 12345);

    void configure(std::uint64_t sets, unsigned ways) override;
    void touch(std::uint64_t set, unsigned way) override;
    void fill(std::uint64_t set, unsigned way) override;
    unsigned victim(std::uint64_t set) override;
    void reset() override;
    std::string name() const override { return "Random"; }

    /** Random keeps no per-way state; every way ranks equal. */
    std::uint64_t
    stateOf(std::uint64_t, unsigned) const override
    {
        return 0;
    }

    /** RNG draws consumed; see ReplacementPolicy::stateToken(). */
    std::uint64_t stateToken() const override { return draws; }

    std::size_t stateWords() const override { return 2; }
    void captureState(std::vector<std::uint64_t> &out) const override;
    bool restoreState(const std::uint64_t *words,
                      std::size_t n) override;

  private:
    unsigned ways = 0;
    std::uint64_t seed;
    Rng rng;
    std::uint64_t draws = 0;
};

/**
 * Append one set's replacement state to `out`, reduced to within-set
 * ranks: way w gets the number of ways ordered before it by
 * (stateOf value, way index).  That pair-order is exactly what
 * victim() consults (the scan keeps the first minimum, i.e. breaks
 * ties toward the lower way), so two snapshots with equal ranks
 * guarantee identical victim choices -- even though the absolute
 * LRU/FIFO clocks keep growing between passes.
 */
inline void
appendReplacementRanks(const ReplacementPolicy &policy,
                       std::uint64_t set, unsigned ways,
                       std::vector<std::uint64_t> &out)
{
    std::vector<std::pair<std::uint64_t, unsigned>> order;
    order.reserve(ways);
    for (unsigned w = 0; w < ways; ++w)
        order.emplace_back(policy.stateOf(set, w), w);
    std::sort(order.begin(), order.end());
    const std::size_t first = out.size();
    out.resize(first + ways);
    for (unsigned rank = 0; rank < ways; ++rank)
        out[first + order[rank].second] = rank;
}

/** Replacement policy selector. */
enum class ReplacementKind
{
    Lru,
    Fifo,
    Random,
};

/** Build a policy instance. */
std::unique_ptr<ReplacementPolicy> makeReplacementPolicy(
    ReplacementKind kind, std::uint64_t seed = 12345);

/** Human-readable policy name. */
std::string replacementName(ReplacementKind kind);

} // namespace vcache

#endif // VCACHE_CACHE_REPLACEMENT_HH
