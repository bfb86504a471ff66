/**
 * @file
 * Data-parallel hot-path kernels with runtime backend dispatch.
 *
 * Every backend compiles into every build (the AVX2 translation unit
 * gets its own -mavx2 flag and is only *called* after a CPUID check),
 * and one is selected at startup -- the best the host supports, or
 * whatever the VCACHE_SIMD environment variable / setActiveBackend()
 * override names.  Callers fetch the active table per probe group, so
 * one virtual-call-sized indirection is amortized over a whole gang
 * of elements.
 *
 * Kernel contracts are purely elementwise and bit-exact against the
 * scalar reference (numtheory::modMersenne, Cache::frameIndex);
 * tests/simd pins every backend to the scalar forms.  `n` is capped
 * at kMaxGang so callers can use fixed stack buffers and mask
 * arithmetic stays inside 32 bits.
 *
 * In the simulators the CC walker's gang probe (sim/cc_walker.hh) is
 * the caller.  It runs under SimEngine::Auto, in gang lanes and in
 * the sampling warmer; SimEngine::Scalar never probes, so
 * `--engine scalar` is the element-at-a-time oracle every backend's
 * gang is pinned against.  The MM machine has no gang path.
 */

#ifndef VCACHE_SIMD_KERNELS_HH
#define VCACHE_SIMD_KERNELS_HH

#include <cstdint>
#include <vector>

namespace vcache::simd
{

/** Largest element group any kernel accepts per call. */
inline constexpr unsigned kMaxGang = 32;

/** All hit/miss masks are dense low bits: bit i is element i. */
inline constexpr std::uint32_t
fullMask(unsigned n)
{
    return n >= 32 ? ~std::uint32_t{0}
                   : (std::uint32_t{1} << n) - 1;
}

enum class Backend
{
    Scalar,
    Avx2,
    Neon,
};

/** Line-to-frame index function selector for the fused strideProbe. */
enum class IndexMap
{
    /** frame = line & (2^bits - 1): direct-mapped. */
    Mask,
    /** frame = line mod (2^bits - 1): prime-mapped. */
    Mersenne,
    /** frame = XOR-fold of bits-wide digits: hash-mapped. */
    XorFold,
};

/**
 * The dispatched kernel table.  All pointers are always non-null.
 */
struct Kernels
{
    Backend backend;
    const char *name;

    /** out[i] = x[i] & mask (direct-mapped frame extraction). */
    void (*maskFrames)(const std::uint64_t *x, unsigned n,
                       std::uint64_t mask, std::uint64_t *out);

    /**
     * out[i] = x[i] mod (2^c - 1) by end-around-carry folding, with
     * the all-ones "negative zero" normalised to 0 -- bit-identical
     * to numtheory::modMersenne (the prime mapping's index function,
     * ISCA 1992 Figure 1, widened to one fold per lane per pass).
     */
    void (*modMersenneN)(const std::uint64_t *x, unsigned n,
                         unsigned c, std::uint64_t *out);

    /** out[i] = XOR-fold of x[i] in c-bit digits (hash mappings). */
    void (*xorFoldN)(const std::uint64_t *x, unsigned n, unsigned c,
                     std::uint64_t *out);

    /**
     * Gang tag probe against a structure-of-arrays tag plane: bit i
     * of the result is set iff tags[frames[i]] == lines[i] and
     * lines[i] != empty_tag.
     *
     * The second clause is the sentinel rule of cache::TagArray:
     * invalid frames hold empty_tag, so a tag match on any *other*
     * line value proves residency without touching the metadata
     * plane.  Callers own the one edge case (a genuinely resident
     * line equal to the sentinel) via TagArray::sentinelResident().
     */
    std::uint32_t (*gangProbe)(const std::uint64_t *tags,
                               const std::uint64_t *frames,
                               const std::uint64_t *lines,
                               unsigned n, std::uint64_t empty_tag);

    /**
     * The fused hot path: element-address generation, the
     * selected index map and gangProbe in one pass, with every
     * intermediate kept in registers instead of bounced through
     * stack buffers.  Bit i of the result is set iff line i =
     * (Addr)(base + i*stride) >> shift -- wrapping mod 2^64 exactly
     * like VectorRef::element -- is resident under the gangProbe
     * sentinel rule.  Semantically identical to the index map plus
     * gangProbe over those lines; the differential tests pin both
     * forms.
     */
    std::uint32_t (*strideProbe)(const std::uint64_t *tags,
                                 std::uint64_t base,
                                 std::int64_t stride, unsigned n,
                                 unsigned shift, IndexMap map,
                                 unsigned bits,
                                 std::uint64_t empty_tag);
};

/** The active table (atomic snapshot; safe to cache per gang). */
const Kernels &kernels();

/** The active backend. */
Backend activeBackend();

/** Human-readable backend name ("scalar", "avx2", "neon"). */
const char *backendName(Backend b);

/**
 * Backends compiled in *and* runnable on this host, best first.
 * Scalar is always present.
 */
std::vector<Backend> availableBackends();

/**
 * Force a backend (test hook and the VCACHE_SIMD override target).
 * @return false (active backend unchanged) if it is not available
 */
bool setActiveBackend(Backend b);

/** Parse a backend name; returns false on unknown names. */
bool parseBackend(const char *name, Backend &out);

// Per-backend tables (internal; exposed for the dispatcher and the
// differential tests).  avx2Kernels() returns nullptr when the build
// or the host cannot run AVX2; neonKernels() likewise for NEON.
const Kernels &scalarKernels();
const Kernels *avx2Kernels();
const Kernels *neonKernels();

} // namespace vcache::simd

#endif // VCACHE_SIMD_KERNELS_HH
