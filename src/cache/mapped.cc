#include "cache/mapped.hh"

#include "util/logging.hh"

namespace vcache
{

namespace
{

constexpr const char *
mappedName(simd::IndexMap map)
{
    switch (map) {
      case simd::IndexMap::Mask:
        return "direct-mapped";
      case simd::IndexMap::Mersenne:
        return "prime-mapped";
      case simd::IndexMap::XorFold:
        return "xor-mapped";
    }
    return "";
}

} // namespace

template <simd::IndexMap Map>
MappedCache<Map>::MappedCache(const AddressLayout &layout)
    : Cache(layout, mappedName(Map)),
      tags_(Map == simd::IndexMap::Mersenne
                ? mersenne(layout.indexBits())
                : std::uint64_t{1} << layout.indexBits())
{
    if constexpr (Map == simd::IndexMap::Mersenne) {
        vc_assert(isMersenneExponent(layout.indexBits()),
                  "2^", layout.indexBits(),
                  " - 1 is not a Mersenne prime; pick c from "
                  "{2,3,5,7,13,17,19,31}");
    }
}

template <simd::IndexMap Map>
void
MappedCache<Map>::reset()
{
    Cache::reset();
    tags_.invalidateAll();
}

template <simd::IndexMap Map>
bool
MappedCache<Map>::fillMissingRun(Addr base, std::int64_t stride,
                                 std::uint64_t length)
    requires(Map != simd::IndexMap::XorFold)
{
    const std::uint64_t frames = tags_.size();
    const std::uint64_t frame_step = floorMod(stride, frames);
    std::uint64_t f = frameOf(base);
    Addr addr = base;
    bool all_missed = true;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    for (std::uint64_t i = 0; i < length; ++i) {
        all_missed &= !tags_.resident(f, addr);
        if (tags_.valid(f)) {
            ++evictions;
            writebacks += (tags_.flags(f) & kDirtyFlag) != 0;
        }
        tags_.place(f, addr);
        addr += static_cast<std::uint64_t>(stride);
        f += frame_step;
        if (f >= frames)
            f -= frames;
    }
    stats_.accesses += length;
    stats_.reads += length;
    stats_.misses += length;
    stats_.evictions += evictions;
    stats_.writebacks += writebacks;
    return all_missed;
}

template <simd::IndexMap Map>
bool
MappedCache<Map>::appendRunState(Addr base, std::int64_t stride,
                                 std::uint64_t length,
                                 std::vector<std::uint64_t> &out) const
{
    if (length == 0)
        return true;
    // The residue maps' frame-index sequence repeats with the gcd
    // period, so the first min(length, period) elements index every
    // frame the run can touch.  XOR folding is not residue-periodic
    // in the stride, so every element's frame is serialized; only the
    // batched simulator's verify passes (already O(length)) pay that.
    std::uint64_t distinct = length;
    if constexpr (Map != simd::IndexMap::XorFold) {
        if (layout_.offsetBits() != 0 ||
            !spansWithoutWrap(base, stride, length))
            return false;
        const std::uint64_t period =
            steadyRunPeriod(tags_.size(), stride);
        if (period < distinct)
            distinct = period;
    }
    for (std::uint64_t r = 0; r < distinct; ++r) {
        const Addr addr = static_cast<Addr>(
            static_cast<std::int64_t>(base) +
            stride * static_cast<std::int64_t>(r));
        const std::uint64_t f = frameOf(layout_.lineAddress(addr));
        out.push_back(f);
        out.push_back(tags_.valid(f));
        out.push_back(tags_.lineOrZero(f));
        out.push_back(tags_.flags(f));
    }
    return true;
}

template class MappedCache<simd::IndexMap::Mask>;
template class MappedCache<simd::IndexMap::Mersenne>;
template class MappedCache<simd::IndexMap::XorFold>;

} // namespace vcache
