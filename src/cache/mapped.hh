/**
 * @file
 * One-way-per-frame caches: direct, prime and XOR mapping.
 *
 * The paper's prime-mapped cache is a conventional direct-mapped
 * cache whose index alone changes; the hit path stays the same.  So
 * all three one-way organizations share one body, templated on the
 * placement function (simd::IndexMap):
 *
 *   Mask     -- frame = line mod 2^c: the conventional direct-mapped
 *               cache, 2^c frames.
 *   Mersenne -- frame = line mod (2^c - 1), the paper's contribution.
 *               The modulus is a Mersenne prime, so a strided sweep
 *               conflicts with itself only when the stride is a
 *               multiple of the cache size -- never for the
 *               power-of-two strides that cripple a conventional
 *               cache.  The index is the Figure-1 end-around-carry
 *               residue (src/address models the incremental hardware
 *               generator); 2^c - 1 frames.
 *   XorFold  -- frame = XOR of the line's c-bit digits, the era's
 *               main alternative index hash, 2^c frames.  Like the
 *               prime mapping it needs no division; unlike it, XOR
 *               folding is linear over GF(2), so any stride that is a
 *               multiple of 2^c still collapses onto few lines.  The
 *               mapping ablation bench quantifies where the prime
 *               modulus wins.
 *
 * Tag state lives in a structure-of-arrays TagArray, and
 * probeHitMask()/probeStrideHitMask() run the dispatched SIMD gang
 * probe over it with the map's own frame kernel.  The class is
 * `final` and defines its probe inline, always inlined, so the
 * templated simulator hot loops bind it statically (no virtual
 * dispatch, and no call, per element).
 */

#ifndef VCACHE_CACHE_MAPPED_HH
#define VCACHE_CACHE_MAPPED_HH

#include <vector>

#include "cache/cache.hh"
#include "cache/tag_array.hh"
#include "numtheory/mersenne.hh"
#include "simd/kernels.hh"

namespace vcache
{

/** Cache with one line per frame, placed by the index map `Map`. */
template <simd::IndexMap Map>
class MappedCache final : public Cache
{
  public:
    /**
     * @param layout index field width c gives 2^c frames (2^c - 1 for
     *        the Mersenne map, which asserts that 2^c - 1 is prime)
     */
    explicit MappedCache(const AddressLayout &layout);

    VCACHE_ALWAYS_INLINE AccessOutcome
    lookupAndFill(Addr line_addr) override
    {
        const std::uint64_t f = frameOf(line_addr);
        if (tags_.resident(f, line_addr))
            return {true, false, 0, 0};

        AccessOutcome outcome{false, tags_.valid(f),
                              tags_.lineOrZero(f), tags_.flags(f)};
        tags_.place(f, line_addr);
        return outcome;
    }

    VCACHE_ALWAYS_INLINE bool
    containsLine(Addr line_addr) const override
    {
        return tags_.resident(frameOf(line_addr), line_addr);
    }

    std::uint32_t
    probeHitMask(const Addr *lines, unsigned n) const override
    {
        if (tags_.sentinelResident()) {
            std::uint32_t hits = 0;
            for (unsigned i = 0; i < n; ++i)
                hits |= static_cast<std::uint32_t>(
                            tags_.resident(frameOf(lines[i]), lines[i]))
                        << i;
            return hits;
        }
        const simd::Kernels &k = simd::kernels();
        std::uint64_t frames[simd::kMaxGang];
        if constexpr (Map == simd::IndexMap::Mask)
            k.maskFrames(lines, n, tags_.size() - 1, frames);
        else if constexpr (Map == simd::IndexMap::Mersenne)
            k.modMersenneN(lines, n, layout_.indexBits(), frames);
        else
            k.xorFoldN(lines, n, layout_.indexBits(), frames);
        return k.gangProbe(tags_.tagPlane(), frames, lines, n,
                           TagArray::kEmptyTag);
    }

    std::uint32_t
    probeStrideHitMask(Addr base, std::int64_t stride,
                       unsigned n) const override
    {
        if (tags_.sentinelResident())
            return Cache::probeStrideHitMask(base, stride, n);
        return simd::kernels().strideProbe(
            tags_.tagPlane(), base, stride, n, layout_.offsetBits(), Map,
            layout_.indexBits(), TagArray::kEmptyTag);
    }

    bool readHitsAreInert() const override { return true; }

    void
    setLineFlag(Addr line_addr, std::uint8_t flag) override
    {
        const std::uint64_t f = frameOf(line_addr);
        if (tags_.resident(f, line_addr))
            tags_.orFlags(f, flag);
    }

    bool
    testLineFlag(Addr line_addr, std::uint8_t flag) const override
    {
        const std::uint64_t f = frameOf(line_addr);
        return tags_.resident(f, line_addr) &&
               (tags_.flags(f) & flag) == flag;
    }

    bool
    clearLineFlag(Addr line_addr, std::uint8_t flag) override
    {
        const std::uint64_t f = frameOf(line_addr);
        if (tags_.resident(f, line_addr) && (tags_.flags(f) & flag)) {
            tags_.clearFlags(f, flag);
            return true;
        }
        return false;
    }

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
        return frameOf(line_addr);
    }

    /**
     * True while any frame carries a flag bit (a dirty line from a
     * restored live point, a prefetched line): state the CC walker's
     * closed forms do not model, so they refuse.  O(1).
     */
    bool anyFlagged() const { return tags_.anyFlagged(); }

    /**
     * Fill every line of a run that the caller proved non-resident
     * (the CC walker's cold pass), exactly as `length` missing reads
     * would, with the stats of those reads.  The frame steps by stride
     * mod frames: the frame sequence of a non-wrapping run on a residue
     * map is periodic (steadyRunPeriod()).  Requires one-word lines and
     * a non-wrapping run.
     *
     * @return false when some line was resident after all (the fill
     *         then went on; the caller's proof was wrong)
     */
    bool fillMissingRun(Addr base, std::int64_t stride,
                        std::uint64_t length)
        requires(Map != simd::IndexMap::XorFold);

    bool appendRunState(Addr base, std::int64_t stride,
                        std::uint64_t length,
                        std::vector<std::uint64_t> &out) const override;

    void
    captureState(std::vector<std::uint64_t> &out) const override
    {
        tags_.appendState(out);
    }

    bool
    restoreState(const std::vector<std::uint64_t> &blob) override
    {
        return tags_.restoreState(blob.data(), blob.size());
    }

  private:
    std::uint64_t
    frameOf(Addr line_addr) const
    {
        if constexpr (Map == simd::IndexMap::Mask) {
            return line_addr & (tags_.size() - 1);
        } else if constexpr (Map == simd::IndexMap::Mersenne) {
            return modMersenne(line_addr, layout_.indexBits());
        } else {
            const unsigned c = layout_.indexBits();
            const std::uint64_t mask = tags_.size() - 1;
            std::uint64_t h = 0;
            for (; line_addr != 0; line_addr >>= c)
                h ^= line_addr & mask;
            return h;
        }
    }

    TagArray tags_;
};

/** Direct-mapped cache with 2^c lines. */
using DirectMappedCache = MappedCache<simd::IndexMap::Mask>;
/** Prime-mapped cache with 2^c - 1 lines. */
using PrimeMappedCache = MappedCache<simd::IndexMap::Mersenne>;
/** Hash-indexed cache with 2^c lines: index = XOR of c-bit digits. */
using XorMappedCache = MappedCache<simd::IndexMap::XorFold>;

} // namespace vcache

#endif // VCACHE_CACHE_MAPPED_HH
