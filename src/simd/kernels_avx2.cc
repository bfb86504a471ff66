/**
 * The AVX2 backend: 4 x 64-bit lanes per instruction, with the
 * gathered tag probe (vpgatherqq) the generic form cannot express.
 *
 * This translation unit is compiled with -mavx2 (see
 * src/simd/CMakeLists.txt) in otherwise-portable builds, so nothing
 * here may run before the dispatcher's __builtin_cpu_supports check
 * passes: no global constructors, no calls from other TUs except
 * through the kernel table.  VCACHE_SIMD_BUILD_AVX2 is defined by the
 * build system only when the compiler accepts the flag on an x86-64
 * target; elsewhere this backend reports unavailable.
 */

#include "simd/kernels.hh"

#if defined(VCACHE_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include "simd/kernels_generic.hh"

namespace vcache::simd
{

namespace
{

inline __m256i
load4(const std::uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store4(std::uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** Per-lane logical right shift by a runtime count. */
inline __m256i
srlVar(__m256i v, unsigned s)
{
    return _mm256_srl_epi64(v, _mm_cvtsi32_si128(static_cast<int>(s)));
}

void
maskFramesAvx2(const std::uint64_t *x, unsigned n,
               std::uint64_t mask, std::uint64_t *out)
{
    const __m256i m = _mm256_set1_epi64x(static_cast<long long>(mask));
    unsigned i = 0;
    for (; i + 4 <= n; i += 4)
        store4(out + i, _mm256_and_si256(load4(x + i), m));
    for (; i < n; ++i)
        out[i] = x[i] & mask;
}

void
modMersenneNAvx2(const std::uint64_t *x, unsigned n, unsigned c,
                 std::uint64_t *out)
{
    const std::uint64_t m = (std::uint64_t{1} << c) - 1;
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i v = load4(x + i);
        // End-around-carry folds, one per pass over the whole pack,
        // until every lane fits in c bits.
        for (;;) {
            const __m256i hi = srlVar(v, c);
            if (_mm256_testz_si256(hi, hi))
                break;
            v = _mm256_add_epi64(_mm256_and_si256(v, vm), hi);
        }
        // Normalise the all-ones "negative zero" lanes to 0.
        v = _mm256_andnot_si256(_mm256_cmpeq_epi64(v, vm), v);
        store4(out + i, v);
    }
    for (; i < n; ++i)
        out[i] = modMersenne(x[i], c);
}

void
xorFoldNAvx2(const std::uint64_t *x, unsigned n, unsigned c,
             std::uint64_t *out)
{
    const std::uint64_t m = (std::uint64_t{1} << c) - 1;
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i v = load4(x + i);
        __m256i h = _mm256_setzero_si256();
        for (;;) {
            h = _mm256_xor_si256(h, _mm256_and_si256(v, vm));
            v = srlVar(v, c);
            if (_mm256_testz_si256(v, v))
                break;
        }
        store4(out + i, h);
    }
    for (; i < n; ++i) {
        std::uint64_t h = 0;
        for (std::uint64_t v = x[i]; v != 0; v >>= c)
            h ^= v & m;
        out[i] = h;
    }
}

std::uint32_t
gangProbeAvx2(const std::uint64_t *tags, const std::uint64_t *frames,
              const std::uint64_t *lines, unsigned n,
              std::uint64_t empty_tag)
{
    std::uint32_t hits = 0;
    const __m256i sentinel =
        _mm256_set1_epi64x(static_cast<long long>(empty_tag));
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i idx = load4(frames + i);
        const __m256i got = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(tags), idx, 8);
        const __m256i want = load4(lines + i);
        const __m256i eq = _mm256_cmpeq_epi64(got, want);
        const __m256i sent = _mm256_cmpeq_epi64(want, sentinel);
        const __m256i hit = _mm256_andnot_si256(sent, eq);
        hits |= static_cast<std::uint32_t>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(hit)))
                << i;
    }
    for (; i < n; ++i) {
        const bool hit = tags[frames[i]] == lines[i] &&
                         lines[i] != empty_tag;
        hits |= static_cast<std::uint32_t>(hit) << i;
    }
    return hits;
}

/**
 * One pack of the fused stride probe: map 4 line addresses to frames
 * (template-specialised per index function so the fold bodies inline
 * without a per-pack branch), gather their tags and fold the hit
 * bits into `hits`.  `rounds` is the fold/digit count precomputed by
 * the caller from the gang's largest line, so the per-pack loops are
 * counted -- no data-dependent testz branch in the pipeline.
 */
template <IndexMap Map>
inline void
strideProbePack(const std::uint64_t *tags, __m256i lines,
                __m256i vm, unsigned bits, unsigned rounds,
                std::uint32_t &hits, unsigned i)
{
    __m256i fr;
    if constexpr (Map == IndexMap::Mask) {
        fr = _mm256_and_si256(lines, vm);
    } else if constexpr (Map == IndexMap::Mersenne) {
        __m256i v = lines;
        for (unsigned r = 0; r < rounds; ++r)
            v = _mm256_add_epi64(_mm256_and_si256(v, vm),
                                 srlVar(v, bits));
        fr = _mm256_andnot_si256(_mm256_cmpeq_epi64(v, vm), v);
    } else {
        __m256i v = lines;
        __m256i h = _mm256_and_si256(v, vm);
        for (unsigned r = 1; r < rounds; ++r) {
            v = srlVar(v, bits);
            h = _mm256_xor_si256(h, _mm256_and_si256(v, vm));
        }
        fr = h;
    }
    const __m256i got = _mm256_i64gather_epi64(
        reinterpret_cast<const long long *>(tags), fr, 8);
    hits |= static_cast<std::uint32_t>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(got, lines))))
            << i;
}

/**
 * Fold rounds that provably reduce any `width`-bit value below 2^bits
 * + (all-ones residue): each end-around-carry fold takes a b-bit
 * value to at most max(bits, b - bits) + 1 bits.
 */
inline unsigned
mersenneRounds(unsigned width, unsigned bits)
{
    unsigned rounds = 0;
    while (width > bits + 1) {
        width = (width - bits > bits ? width - bits : bits) + 1;
        ++rounds;
    }
    // From width <= bits+1 at most two more folds land in
    // [0, 2^bits-1]: one fold reaches <= 2^bits, a second clears the
    // exact-2^bits case.  Overshooting is safe -- the fold is the
    // identity on values below 2^bits.
    return rounds + (width > bits ? 2 : 0);
}

inline unsigned
bitWidth(std::uint64_t v)
{
    return v == 0 ? 0 : 64 - static_cast<unsigned>(__builtin_clzll(v));
}

template <IndexMap Map>
std::uint32_t
strideProbeLoop(const std::uint64_t *tags, std::uint64_t base,
                std::int64_t stride, unsigned n, unsigned shift,
                unsigned bits, std::uint64_t empty_tag)
{
    const std::uint64_t s = static_cast<std::uint64_t>(stride);
    const std::uint64_t m = (std::uint64_t{1} << bits) - 1;

    // Lines are monotonic over the gang unless the address arithmetic
    // wraps; the max line's bit width bounds the fold rounds, and a
    // non-sentinel max proves no lane needs the sentinel disambiguation
    // (~0 is the largest 64-bit value).  On wrap, assume the worst on
    // both counts.
    const std::uint64_t last = base + s * (n - 1);
    const bool wraps =
        n > 1 && (stride >= 0 ? last < base : last > base);
    const std::uint64_t max_line =
        wraps ? ~std::uint64_t{0}
              : (stride >= 0 ? last : base) >> shift;
    std::uint32_t sentinel_lanes = 0;
    if (max_line == empty_tag) {
        for (unsigned i = 0; i < n; ++i)
            sentinel_lanes |=
                static_cast<std::uint32_t>(
                    ((base + s * i) >> shift) == empty_tag)
                << i;
    }
    const unsigned rounds =
        Map == IndexMap::Mersenne
            ? mersenneRounds(bitWidth(max_line), bits)
            : (bitWidth(max_line) + bits - 1) / bits;

    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    std::uint32_t hits = 0;
    unsigned i = 0;
    if (n >= 4) {
        __m256i addr = _mm256_setr_epi64x(
            static_cast<long long>(base),
            static_cast<long long>(base + s),
            static_cast<long long>(base + 2 * s),
            static_cast<long long>(base + 3 * s));
        const __m256i step =
            _mm256_set1_epi64x(static_cast<long long>(4 * s));
        for (; i + 4 <= n; i += 4) {
            strideProbePack<Map>(tags, srlVar(addr, shift), vm, bits,
                                 rounds, hits, i);
            addr = _mm256_add_epi64(addr, step);
        }
    }
    for (; i < n; ++i) {
        const std::uint64_t line = (base + s * i) >> shift;
        std::uint64_t fr;
        if constexpr (Map == IndexMap::Mask) {
            fr = line & m;
        } else if constexpr (Map == IndexMap::Mersenne) {
            fr = modMersenne(line, bits);
        } else {
            fr = 0;
            for (std::uint64_t v = line; v != 0; v >>= bits)
                fr ^= v & m;
        }
        hits |= static_cast<std::uint32_t>(tags[fr] == line) << i;
    }
    // A lane probing for the sentinel value matched an *invalid*
    // frame above; mask those false hits out.
    return hits & ~sentinel_lanes;
}

std::uint32_t
strideProbeAvx2(const std::uint64_t *tags, std::uint64_t base,
                std::int64_t stride, unsigned n, unsigned shift,
                IndexMap map, unsigned bits, std::uint64_t empty_tag)
{
    switch (map) {
      case IndexMap::Mask:
        return strideProbeLoop<IndexMap::Mask>(
            tags, base, stride, n, shift, bits, empty_tag);
      case IndexMap::Mersenne:
        return strideProbeLoop<IndexMap::Mersenne>(
            tags, base, stride, n, shift, bits, empty_tag);
      case IndexMap::XorFold:
        break;
    }
    return strideProbeLoop<IndexMap::XorFold>(
        tags, base, stride, n, shift, bits, empty_tag);
}

} // namespace

const Kernels *
avx2Kernels()
{
    static constexpr Kernels k = {
        Backend::Avx2,     "avx2",         &maskFramesAvx2,
        &modMersenneNAvx2, &xorFoldNAvx2,  &gangProbeAvx2,
        &strideProbeAvx2,
    };
    return &k;
}

} // namespace vcache::simd

#else // !VCACHE_SIMD_BUILD_AVX2

namespace vcache::simd
{

const Kernels *
avx2Kernels()
{
    return nullptr;
}

} // namespace vcache::simd

#endif
