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
MappedCache<Map>::verifySteadyRun(Addr base, std::int64_t stride,
                                  std::uint64_t length) const
    requires(Map != simd::IndexMap::XorFold)
{
    if (length == 0)
        return true;
    // The period/distinctness arguments need one word per line and a
    // non-wrapping progression (mod-(2^c - 1) periodicity only holds
    // for the true integer progression).
    if (layout_.offsetBits() != 0 ||
        !spansWithoutWrap(base, stride, length))
        return false;
    const std::uint64_t period =
        steadyRunPeriod(tags_.size(), stride);
    const std::uint64_t distinct = period < length ? period : length;
    for (std::uint64_t r = 0; r < distinct; ++r) {
        // Last element of residue class r: the line this frame must
        // hold after any complete pass over the run.
        const std::uint64_t last =
            r + (length - 1 - r) / period * period;
        const Addr addr = static_cast<Addr>(
            static_cast<std::int64_t>(base) +
            stride * static_cast<std::int64_t>(last));
        const std::uint64_t f = frameOf(addr);
        if (!tags_.resident(f, addr))
            return false;
        // Classes with two or more distinct addresses get their frame
        // refilled on replay; a flag bit there would mean a writeback
        // or a flag change, breaking the fixed point.
        if (stride != 0 && r + period < length && tags_.flags(f) != 0)
            return false;
    }
    return true;
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
