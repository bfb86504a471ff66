/**
 * @file
 * Set-associative cache, over a power-of-two or a Mersenne-prime set
 * count (fully associative as the one-set special case), used for the
 * Section-2.1 "can associativity help?" study.
 *
 * The power-of-two body indexes set = line mod (2^c / ways).  The
 * prime body composes the paper's two ideas: Section 2.1 observes
 * that associativity alone cannot remove vector interference (too few
 * sets), and Section 2.3 fixes the set count instead of the way
 * count.  It indexes set = line mod (2^c - 1), the prime-mapped
 * cache's end-around-carry residue, with a small number of ways and
 * an LRU/FIFO/Random policy -- the natural "future work" point for
 * the paper's "whether there exists a better replacement algorithm
 * needs further study".
 *
 * Ways live in a TagArray (frame = set * ways + way).  A set of up to
 * kScanWays ways is searched by scanning its tags; wider sets (the
 * fully associative cache above all) keep a line-to-frame hash map
 * instead, so a lookup there costs one probe, not a scan of thousands
 * of ways.  The map costs an erase and an insert per fill, which
 * outweighs the scan it saves below about 64 ways.
 */

#ifndef VCACHE_CACHE_SET_ASSOC_HH
#define VCACHE_CACHE_SET_ASSOC_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/replacement.hh"
#include "cache/tag_array.hh"
#include "simd/kernels.hh"
#include "util/flat_hash.hh"

namespace vcache
{

/** N-way set-associative cache. */
class SetAssociativeCache final : public Cache
{
  public:
    /**
     * @param layout index field width c: 2^c lines in 2^c / ways sets
     *               (Mask), or 2^c - 1 sets of `ways` lines each
     *               (Mersenne, which asserts that 2^c - 1 is prime)
     * @param ways associativity; under Mask it must divide the line
     *             count
     * @param policy replacement policy instance (owned)
     * @param sets set index map: Mask or Mersenne
     */
    SetAssociativeCache(const AddressLayout &layout, unsigned ways,
                        std::unique_ptr<ReplacementPolicy> policy,
                        simd::IndexMap sets = simd::IndexMap::Mask);

    AccessOutcome lookupAndFill(Addr line_addr) override;
    bool containsLine(Addr line_addr) const override;
    void setLineFlag(Addr line_addr, std::uint8_t flag) override;
    bool testLineFlag(Addr line_addr,
                      std::uint8_t flag) const override;
    bool clearLineFlag(Addr line_addr, std::uint8_t flag) override;
    void reset() override;
    std::uint64_t numLines() const override { return tags_.size(); }

    std::uint64_t
    validLines() const override
    {
        return tags_.validCount();
    }

    std::uint64_t
    frameIndex(Addr line_addr) const override
    {
        return setOf(line_addr);
    }

    unsigned associativity() const { return ways_; }
    std::uint64_t numSets() const override { return sets_; }
    const ReplacementPolicy &replacement() const { return *policy_; }

    bool appendRunState(Addr base, std::int64_t stride,
                        std::uint64_t length,
                        std::vector<std::uint64_t> &out) const override;

    void captureState(std::vector<std::uint64_t> &out) const override;
    bool restoreState(const std::vector<std::uint64_t> &blob) override;

  private:
    /** Widest set searched by a scan rather than the map. */
    static constexpr unsigned kScanWays = 32;
    /** findFrame() result for a line that is not resident. */
    static constexpr std::uint64_t kNoFrame = ~std::uint64_t{0};

    /** The frame holding resident `line_addr` of `set`, or kNoFrame. */
    std::uint64_t findFrame(std::uint64_t set, Addr line_addr) const;

    std::uint64_t
    findFrame(Addr line_addr) const
    {
        return findFrame(setOf(line_addr), line_addr);
    }

    /** Fill frame f with `line_addr`, keeping the map in step. */
    void place(std::uint64_t f, Addr line_addr);

    std::uint64_t setOf(Addr line_addr) const;

    simd::IndexMap map_;
    unsigned ways_;
    std::uint64_t sets_;
    TagArray tags_; // frame = set * ways + way
    /**
     * Resident line -> its frame, kept only when ways_ > kScanWays
     * (a line has one set, so one frame).
     */
    FlatMap<Addr, std::uint32_t> where_;
    std::unique_ptr<ReplacementPolicy> policy_;
};

/** Convenience factory for a fully associative cache of 2^c lines. */
std::unique_ptr<SetAssociativeCache> makeFullyAssociative(
    const AddressLayout &layout,
    std::unique_ptr<ReplacementPolicy> policy);

} // namespace vcache

#endif // VCACHE_CACHE_SET_ASSOC_HH
