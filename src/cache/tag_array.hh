/**
 * @file
 * Structure-of-arrays tag state for every cache organization.
 *
 * A frame's (valid, line, flags) state is split into two planes, so a
 * gang probe gathers one word per element instead of a frame struct:
 *
 *   tags_[f]  -- the resident line address, or kEmptyTag (all-ones)
 *                when frame f is invalid;
 *   meta_[f]  -- bit 7 (kValidBit) the valid bit, low bits the
 *                Cache::k*Flag metadata.
 *
 * The sentinel makes residency a single comparison on the tag plane:
 * `tags_[f] == line` proves a hit for every line except the sentinel
 * value itself, which is all the SIMD gang probe
 * (simd::Kernels::gangProbe) compares.  The one ambiguous case -- a
 * genuinely resident line equal to ~0, reachable because VectorRef
 * element arithmetic wraps mod 2^64 -- is tracked by a
 * resident-sentinel count; while it is nonzero, gang users must take
 * the scalar path (sentinelResident()).
 * The scalar probe is exact always: resident() checks the valid bit
 * whenever the probed line is the sentinel.
 *
 * The same array holds the ways of the set-associative cache (frame
 * = set * ways + way), so appendState()/restoreState() are the one
 * frame-state codec of every organization.  Two layouts, selected per
 * capture by whichever is smaller and distinguished by a tag word:
 *
 *   dense:  [kDenseState, frameCount, then per frame: line,
 *            (flags << 1) | valid]
 *   sparse: [kSparseState, frameCount, validCount, then per valid
 *            frame: index, line, flags]
 *
 * Invalid frames serialize their line word as 0.  The sparse form
 * matters to the sampling engine, which snapshots the cache once per
 * live-point: a mostly-cold cache serializes in O(valid frames)
 * instead of O(cache size).
 */

#ifndef VCACHE_CACHE_TAG_ARRAY_HH
#define VCACHE_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace vcache
{

class TagArray
{
  public:
    /** Tag value held by invalid frames. */
    static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};
    /** Valid bit in the metadata plane (above every Cache::k*Flag). */
    static constexpr std::uint8_t kValidBit = 0x80;
    /** Metadata bits that are frame flags. */
    static constexpr std::uint8_t kFlagMask = 0x7f;
    /** Tag words of the two appendState() layouts. */
    static constexpr std::uint64_t kDenseState = 0;
    static constexpr std::uint64_t kSparseState = 1;

    explicit TagArray(std::uint64_t frames)
        : tags_(frames, kEmptyTag), meta_(frames, 0)
    {
    }

    std::uint64_t size() const { return tags_.size(); }

    /** Exact scalar residency test for frame f against `line`. */
    bool
    resident(std::uint64_t f, Addr line) const
    {
        // For any line but the sentinel, the tag compare alone
        // decides; the second clause only materialises when probing
        // for line ~0, where a valid-bit check disambiguates.
        return tags_[f] == line &&
               (line != kEmptyTag || (meta_[f] & kValidBit) != 0);
    }

    bool valid(std::uint64_t f) const
    {
        return (meta_[f] & kValidBit) != 0;
    }

    /** Resident line of a valid frame (sentinel when invalid). */
    Addr line(std::uint64_t f) const { return tags_[f]; }

    /**
     * Resident line, with invalid frames reading as 0: the value
     * AccessOutcome::evictedLine and the state blobs report for an
     * empty frame.
     */
    Addr
    lineOrZero(std::uint64_t f) const
    {
        return valid(f) ? tags_[f] : 0;
    }

    std::uint8_t flags(std::uint64_t f) const
    {
        return meta_[f] & kFlagMask;
    }

    void orFlags(std::uint64_t f, std::uint8_t flag)
    {
        flagged_ -= flags(f) != 0;
        meta_[f] |= static_cast<std::uint8_t>(flag & kFlagMask);
        flagged_ += flags(f) != 0;
    }

    void
    clearFlags(std::uint64_t f, std::uint8_t flag)
    {
        flagged_ -= flags(f) != 0;
        meta_[f] &= static_cast<std::uint8_t>(~(flag & kFlagMask));
        flagged_ += flags(f) != 0;
    }

    /** Fill frame f with `line`, clearing its flags. */
    void
    place(std::uint64_t f, Addr line)
    {
        if (valid(f)) {
            if (tags_[f] == kEmptyTag)
                --sentinel_resident_;
            if (flags(f) != 0)
                --flagged_;
        } else {
            ++valid_count_;
        }
        if (line == kEmptyTag)
            ++sentinel_resident_;
        tags_[f] = line;
        meta_[f] = kValidBit;
    }

    void
    invalidateAll()
    {
        tags_.assign(tags_.size(), kEmptyTag);
        meta_.assign(meta_.size(), 0);
        valid_count_ = 0;
        sentinel_resident_ = 0;
        flagged_ = 0;
    }

    std::uint64_t validCount() const { return valid_count_; }

    /** True while any frame carries a flag bit. */
    bool anyFlagged() const { return flagged_ != 0; }

    /**
     * True while any frame holds a *real* resident line equal to the
     * sentinel, making the tag-compare-only gang probe ambiguous;
     * gang users must fall back to scalar until it clears.
     */
    bool sentinelResident() const { return sentinel_resident_ != 0; }

    /** The contiguous tag plane, for simd::Kernels::gangProbe. */
    const std::uint64_t *tagPlane() const { return tags_.data(); }

    /** Append the frame state to `out` (Cache::captureState). */
    void appendState(std::vector<std::uint64_t> &out) const;

    /**
     * Words the frame state occupies at the head of a blob, or 0 when
     * the head is not well formed for this array's size.
     */
    std::size_t stateWords(const std::uint64_t *words,
                           std::size_t n) const;

    /** Restore exactly n words of appendState() output; false (array
     *  unchanged) on a malformed or mis-sized blob. */
    bool restoreState(const std::uint64_t *words, std::size_t n);

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> meta_;
    std::uint64_t valid_count_ = 0;
    std::uint64_t sentinel_resident_ = 0;
    /** Frames with a flag bit set. */
    std::uint64_t flagged_ = 0;
};

} // namespace vcache

#endif // VCACHE_CACHE_TAG_ARRAY_HH
