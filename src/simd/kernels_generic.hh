/**
 * @file
 * Width-generic kernel bodies over simd::Lanes<W>, shared by the
 * portable-scalar and NEON backends (and the AVX2 backend's tails).
 *
 * Each kernel processes full W-lane packs then a scalar tail, with
 * no lane-dependent control flow inside a pack, so the compiler can
 * lower a pack to one vector register at whatever width the target
 * supports.  Correctness never depends on that lowering: Lanes<1>
 * is the plain scalar loop.
 */

#ifndef VCACHE_SIMD_KERNELS_GENERIC_HH
#define VCACHE_SIMD_KERNELS_GENERIC_HH

#include "numtheory/mersenne.hh"
#include "simd/kernels.hh"
#include "simd/lanes.hh"

namespace vcache::simd::generic
{

template <unsigned W>
inline void
strideLines(std::uint64_t base, std::int64_t stride, unsigned n,
            unsigned shift, std::uint64_t *lines)
{
    const std::uint64_t s = static_cast<std::uint64_t>(stride);
    // Each pack is computed afresh as base + (i + lane) * s rather
    // than carried as a running vector induction: GCC's -O3 loop
    // vectorizer mis-lowered the carried form (wrong lanes from the
    // second pack on), and the closed form has no loop-carried state
    // to get wrong.
    const Lanes<W> offsets = Lanes<W>::iota() * Lanes<W>::broadcast(s);
    unsigned i = 0;
    for (; i + W <= n; i += W)
        ((Lanes<W>::broadcast(base + s * i) + offsets) >> shift)
            .store(lines + i);
    for (; i < n; ++i)
        lines[i] = (base + s * i) >> shift;
}

template <unsigned W>
inline void
maskFrames(const std::uint64_t *x, unsigned n, std::uint64_t mask,
           std::uint64_t *out)
{
    unsigned i = 0;
    const Lanes<W> m = Lanes<W>::broadcast(mask);
    for (; i + W <= n; i += W)
        (Lanes<W>::load(x + i) & m).store(out + i);
    for (; i < n; ++i)
        out[i] = x[i] & mask;
}

template <unsigned W>
inline void
modMersenneN(const std::uint64_t *x, unsigned n, unsigned c,
             std::uint64_t *out)
{
    const std::uint64_t m = (std::uint64_t{1} << c) - 1;
    const Lanes<W> vm = Lanes<W>::broadcast(m);
    unsigned i = 0;
    for (; i + W <= n; i += W) {
        Lanes<W> v = Lanes<W>::load(x + i);
        // One fold per pass across the whole pack; lanes already
        // reduced fold in zeros and stay put.
        for (;;) {
            const Lanes<W> hi = v >> c;
            if (hi.reduceOr() == 0)
                break;
            v = (v & vm) + hi;
        }
        v.zeroWhereEqual(m).store(out + i);
    }
    for (; i < n; ++i)
        out[i] = modMersenne(x[i], c);
}

template <unsigned W>
inline void
xorFoldN(const std::uint64_t *x, unsigned n, unsigned c,
         std::uint64_t *out)
{
    const Lanes<W> vm =
        Lanes<W>::broadcast((std::uint64_t{1} << c) - 1);
    unsigned i = 0;
    for (; i + W <= n; i += W) {
        Lanes<W> v = Lanes<W>::load(x + i);
        Lanes<W> h = Lanes<W>::broadcast(0);
        for (;;) {
            h = h ^ (v & vm);
            v = v >> c;
            if (v.reduceOr() == 0)
                break;
        }
        h.store(out + i);
    }
    const std::uint64_t m = (std::uint64_t{1} << c) - 1;
    for (; i < n; ++i) {
        std::uint64_t h = 0;
        for (std::uint64_t v = x[i]; v != 0; v >>= c)
            h ^= v & m;
        out[i] = h;
    }
}

template <unsigned W>
inline std::uint32_t
gangProbe(const std::uint64_t *tags, const std::uint64_t *frames,
          const std::uint64_t *lines, unsigned n,
          std::uint64_t empty_tag)
{
    std::uint32_t hits = 0;
    unsigned i = 0;
    const Lanes<W> sentinel = Lanes<W>::broadcast(empty_tag);
    for (; i + W <= n; i += W) {
        const Lanes<W> idx = Lanes<W>::load(frames + i);
        const Lanes<W> got = Lanes<W>::gather(tags, idx);
        const Lanes<W> want = Lanes<W>::load(lines + i);
        const std::uint32_t eq = got.eqMask(want);
        const std::uint32_t is_sentinel = want.eqMask(sentinel);
        hits |= (eq & ~is_sentinel) << i;
    }
    for (; i < n; ++i) {
        const bool hit = tags[frames[i]] == lines[i] &&
                         lines[i] != empty_tag;
        hits |= static_cast<std::uint32_t>(hit) << i;
    }
    return hits;
}

template <unsigned W>
inline std::uint32_t
strideProbe(const std::uint64_t *tags, std::uint64_t base,
            std::int64_t stride, unsigned n, unsigned shift,
            IndexMap map, unsigned bits, std::uint64_t empty_tag)
{
    std::uint64_t lines[kMaxGang];
    std::uint64_t frames[kMaxGang];
    strideLines<W>(base, stride, n, shift, lines);
    switch (map) {
      case IndexMap::Mask:
        maskFrames<W>(lines, n, (std::uint64_t{1} << bits) - 1,
                      frames);
        break;
      case IndexMap::Mersenne:
        modMersenneN<W>(lines, n, bits, frames);
        break;
      case IndexMap::XorFold:
        xorFoldN<W>(lines, n, bits, frames);
        break;
    }
    return gangProbe<W>(tags, frames, lines, n, empty_tag);
}

/** Build a full kernel table from the W-lane generic bodies. */
template <unsigned W>
constexpr Kernels
makeKernels(Backend backend, const char *name)
{
    return Kernels{
        backend,
        name,
        &maskFrames<W>,
        &modMersenneN<W>,
        &xorFoldN<W>,
        &gangProbe<W>,
        &strideProbe<W>,
    };
}

} // namespace vcache::simd::generic

#endif // VCACHE_SIMD_KERNELS_GENERIC_HH
