/**
 * Per-backend differential pins for the SIMD kernel layer.
 *
 * Every backend the host can run (forced via setActiveBackend, the
 * same hook the VCACHE_SIMD override uses) must be bit-identical to
 * the scalar reference forms: numtheory::modMersenne over exhaustive
 * 16-bit plus random 64-bit inputs, the fold kernels against their
 * elementwise definitions, and the gang probes against the
 * caches' own containsLine across every shipped organization --
 * including the ~0 sentinel-tag edge cases the SoA layout introduces.
 */

#include "simd/kernels.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/factory.hh"
#include "cache/tag_array.hh"
#include "numtheory/mersenne.hh"
#include "simd/kernels_generic.hh"
#include "util/rng.hh"

namespace vcache
{
namespace
{

class PerBackend : public ::testing::TestWithParam<simd::Backend>
{
  protected:
    void
    SetUp() override
    {
        prev_ = simd::activeBackend();
        ASSERT_TRUE(simd::setActiveBackend(GetParam()));
    }

    void TearDown() override { simd::setActiveBackend(prev_); }

  private:
    simd::Backend prev_ = simd::Backend::Scalar;
};

std::string
backendSuiteName(const ::testing::TestParamInfo<simd::Backend> &info)
{
    return simd::backendName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PerBackend,
                         ::testing::ValuesIn(simd::availableBackends()),
                         backendSuiteName);

/** Scalar XOR fold of c-bit digits (XorMappedCache::hashIndex). */
std::uint64_t
refXorFold(std::uint64_t x, unsigned c)
{
    const std::uint64_t mask = (std::uint64_t{1} << c) - 1;
    std::uint64_t h = 0;
    while (x != 0) {
        h ^= x & mask;
        x >>= c;
    }
    return h;
}

/** Interesting 64-bit inputs around every fold boundary. */
std::vector<std::uint64_t>
edgeInputs(unsigned c)
{
    const std::uint64_t m = (std::uint64_t{1} << c) - 1;
    std::vector<std::uint64_t> xs = {0,    1,     m - 1, m,
                                     m + 1, 2 * m, 2 * m + 1};
    for (unsigned shift = c; shift < 64; shift += c) {
        xs.push_back(m << shift);
        xs.push_back((m << shift) | m);
    }
    xs.push_back(~std::uint64_t{0});
    xs.push_back(~std::uint64_t{0} - 1);
    xs.push_back(std::uint64_t{1} << 63);
    return xs;
}

TEST_P(PerBackend, ModMersenneExhaustive16Bit)
{
    const simd::Kernels &k = simd::kernels();
    for (const unsigned c : {2u, 3u, 5u, 7u, 13u}) {
        std::uint64_t in[simd::kMaxGang];
        std::uint64_t out[simd::kMaxGang];
        for (std::uint64_t base = 0; base < (1u << 16);
             base += simd::kMaxGang) {
            for (unsigned i = 0; i < simd::kMaxGang; ++i)
                in[i] = base + i;
            k.modMersenneN(in, simd::kMaxGang, c, out);
            for (unsigned i = 0; i < simd::kMaxGang; ++i)
                ASSERT_EQ(out[i], modMersenne(in[i], c))
                    << "c=" << c << " x=" << in[i];
        }
    }
}

TEST_P(PerBackend, ModMersenneRandomAndEdge64Bit)
{
    const simd::Kernels &k = simd::kernels();
    Rng rng(20260807);
    for (const unsigned c : {2u, 5u, 13u, 16u, 31u}) {
        std::vector<std::uint64_t> xs = edgeInputs(c);
        for (int i = 0; i < 4096; ++i)
            xs.push_back(rng.next());
        std::uint64_t out[simd::kMaxGang];
        for (std::size_t at = 0; at < xs.size();
             at += simd::kMaxGang) {
            const unsigned n = static_cast<unsigned>(
                std::min<std::size_t>(simd::kMaxGang,
                                      xs.size() - at));
            k.modMersenneN(xs.data() + at, n, c, out);
            for (unsigned i = 0; i < n; ++i)
                ASSERT_EQ(out[i], modMersenne(xs[at + i], c))
                    << "c=" << c << " x=" << xs[at + i];
        }
    }
}

/**
 * The generic strideLines<W> template every generic backend's
 * strideProbe composes, at each width those backends use: the -O3
 * loop vectorizer once mis-lowered its carried form from the second
 * pack on, which only this direct pin localizes.  The template is
 * backend-independent, so each backend run pins the same bodies.
 */
template <unsigned W>
void
expectStrideLinesMatch()
{
    const std::uint64_t bases[] = {0, 64, 123456789,
                                   ~std::uint64_t{0} - 500};
    const std::int64_t strides[] = {0, 1, -1, 3, -7, 8192, -8192};
    for (const std::uint64_t base : bases) {
        for (const std::int64_t stride : strides) {
            for (const unsigned shift : {0u, 2u}) {
                for (const unsigned n : {1u, 5u, 32u}) {
                    std::uint64_t lines[simd::kMaxGang];
                    simd::generic::strideLines<W>(base, stride, n,
                                                  shift, lines);
                    for (unsigned i = 0; i < n; ++i) {
                        const std::uint64_t want =
                            (base +
                             static_cast<std::uint64_t>(stride) * i) >>
                            shift;
                        ASSERT_EQ(lines[i], want)
                            << "W=" << W << " base=" << base
                            << " stride=" << stride
                            << " shift=" << shift << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST_P(PerBackend, StrideLinesMatchesElementArithmetic)
{
    expectStrideLinesMatch<1>();
    expectStrideLinesMatch<2>();
    expectStrideLinesMatch<4>();
}

TEST_P(PerBackend, FoldKernelsMatchScalarForms)
{
    const simd::Kernels &k = simd::kernels();
    Rng rng(7);
    for (const unsigned c : {2u, 5u, 13u, 16u}) {
        std::vector<std::uint64_t> xs = edgeInputs(c);
        for (int i = 0; i < 1024; ++i)
            xs.push_back(rng.next());
        const std::uint64_t mask = (std::uint64_t{1} << c) - 1;
        std::uint64_t out[simd::kMaxGang];
        for (std::size_t at = 0; at < xs.size();
             at += simd::kMaxGang) {
            const unsigned n = static_cast<unsigned>(
                std::min<std::size_t>(simd::kMaxGang,
                                      xs.size() - at));
            k.maskFrames(xs.data() + at, n, mask, out);
            for (unsigned i = 0; i < n; ++i)
                ASSERT_EQ(out[i], xs[at + i] & mask);
            k.xorFoldN(xs.data() + at, n, c, out);
            for (unsigned i = 0; i < n; ++i)
                ASSERT_EQ(out[i], refXorFold(xs[at + i], c))
                    << "c=" << c << " x=" << xs[at + i];
        }
    }
}

TEST_P(PerBackend, GangProbeHonorsSentinelRule)
{
    const simd::Kernels &k = simd::kernels();
    constexpr std::uint64_t kEmpty = TagArray::kEmptyTag;
    std::vector<std::uint64_t> tags(64, kEmpty);
    tags[3] = 100;
    tags[7] = 0;
    tags[9] = kEmpty; // invalid frame: must never report a hit

    const std::uint64_t frames[] = {3, 3, 7, 9, 5, 7};
    const std::uint64_t lines[] = {100, 101, 0, kEmpty, kEmpty, 0};
    const std::uint32_t got =
        k.gangProbe(tags.data(), frames, lines, 6, kEmpty);
    // Hits: frame 3/line 100, frame 7/line 0 (twice).  Misses: wrong
    // line, sentinel-valued probe lines (even against an invalid
    // frame holding the sentinel), empty frame.
    EXPECT_EQ(got, 0b100101u);
}

/**
 * strideProbe (the fused hot path) must equal the composition of
 * element-address generation, the selected index map and gangProbe,
 * for every index map, across wrap-around bases, negative strides and
 * sentinel-valued probe lines.
 */
TEST_P(PerBackend, StrideProbeMatchesDiscreteComposition)
{
    const simd::Kernels &k = simd::kernels();
    constexpr std::uint64_t kEmpty = TagArray::kEmptyTag;
    Rng rng(99);

    for (const simd::IndexMap map :
         {simd::IndexMap::Mask, simd::IndexMap::Mersenne,
          simd::IndexMap::XorFold}) {
        for (const unsigned bits : {5u, 13u}) {
            const auto frameOf = [&](std::uint64_t line) {
                const std::uint64_t m =
                    (std::uint64_t{1} << bits) - 1;
                switch (map) {
                case simd::IndexMap::Mask:
                    return line & m;
                case simd::IndexMap::Mersenne:
                    return modMersenne(line, bits);
                default:
                    return refXorFold(line, bits);
                }
            };
            std::vector<std::uint64_t> tags(std::uint64_t{1} << bits,
                                            kEmpty);

            const std::uint64_t bases[] = {
                0, 999, ~std::uint64_t{0} - 97,
                rng.next()};
            const std::int64_t strides[] = {0, 1, 3, -5, 8191};
            for (const std::uint64_t base : bases) {
                for (const std::int64_t stride : strides) {
                    for (const unsigned shift : {0u, 2u}) {
                        // Make roughly every other element resident.
                        for (unsigned i = 0; i < 32; i += 2) {
                            const std::uint64_t line =
                                (base +
                                 static_cast<std::uint64_t>(stride) *
                                     i) >>
                                shift;
                            if (line != kEmpty)
                                tags[frameOf(line)] = line;
                        }
                        for (const unsigned n : {1u, 7u, 32u}) {
                            std::uint64_t lines[simd::kMaxGang];
                            std::uint64_t frames[simd::kMaxGang];
                            for (unsigned i = 0; i < n; ++i) {
                                lines[i] =
                                    (base +
                                     static_cast<std::uint64_t>(
                                         stride) *
                                         i) >>
                                    shift;
                                frames[i] = frameOf(lines[i]);
                            }
                            const std::uint32_t want = k.gangProbe(
                                tags.data(), frames, lines, n,
                                kEmpty);
                            const std::uint32_t got = k.strideProbe(
                                tags.data(), base, stride, n, shift,
                                map, bits, kEmpty);
                            ASSERT_EQ(got, want)
                                << simd::backendName(k.backend)
                                << " map="
                                << static_cast<int>(map)
                                << " bits=" << bits
                                << " base=" << base
                                << " stride=" << stride
                                << " shift=" << shift << " n=" << n;
                        }
                    }
                }
            }
        }
    }
}

/**
 * A probe line equal to the sentinel must miss even when its frame
 * holds the sentinel (an *invalid* frame), in both gang entry points.
 */
TEST_P(PerBackend, StrideProbeSentinelLineNeverHits)
{
    const simd::Kernels &k = simd::kernels();
    constexpr std::uint64_t kEmpty = TagArray::kEmptyTag;
    std::vector<std::uint64_t> tags(32, kEmpty);
    // base ~0, stride 0, shift 0: every line is the sentinel.
    const std::uint32_t got =
        k.strideProbe(tags.data(), ~std::uint64_t{0}, 0, 8, 0,
                      simd::IndexMap::Mask, 5, kEmpty);
    EXPECT_EQ(got, 0u);
}

/** The cache configurations the batched differential suite pins. */
std::vector<std::pair<std::string, CacheConfig>>
allSchemes()
{
    std::vector<std::pair<std::string, CacheConfig>> out;

    CacheConfig direct;
    direct.indexBits = 7;
    out.emplace_back("direct", direct);

    CacheConfig prime = direct;
    prime.organization = Organization::PrimeMapped;
    out.emplace_back("prime", prime);

    CacheConfig prime_assoc = direct;
    prime_assoc.organization = Organization::PrimeSetAssociative;
    prime_assoc.associativity = 2;
    out.emplace_back("prime-assoc", prime_assoc);

    CacheConfig set_assoc = direct;
    set_assoc.organization = Organization::SetAssociative;
    set_assoc.associativity = 4;
    out.emplace_back("set-assoc", set_assoc);

    CacheConfig xor_mapped = direct;
    xor_mapped.organization = Organization::XorMapped;
    out.emplace_back("xor", xor_mapped);

    CacheConfig random_assoc = set_assoc;
    random_assoc.replacement = ReplacementKind::Random;
    out.emplace_back("set-assoc-random", random_assoc);

    CacheConfig wide_lines = direct;
    wide_lines.offsetBits = 2;
    out.emplace_back("direct-4word", wide_lines);

    return out;
}

/**
 * Cache-level pin: the gang probes (probeHitMask and the fused
 * probeStrideHitMask) must agree bit-for-bit with the statically
 * bound scalar containsLine on every organization -- the associative
 * ones exercise the Cache base-class scalar defaults, the SoA ones
 * the dispatched kernels, and a resident sentinel-valued line (~0)
 * forces the documented scalar fallback.
 */
TEST_P(PerBackend, CacheProbesMatchContainsAcrossSchemes)
{
    for (const auto &[name, config] : allSchemes()) {
        auto cache = makeCache(config);
        const AddressLayout &layout = cache->addressLayout();

        // Warm with two interleaved strided sweeps so some probes hit
        // and the index maps wrap the table several times.
        for (std::uint64_t i = 0; i < 2000; ++i)
            cache->lookupAndFill(layout.lineAddress(i * 3));
        for (std::uint64_t i = 0; i < 500; ++i)
            cache->lookupAndFill(layout.lineAddress(1u << 20 | i));
        // The sentinel edge: line address ~0 resident.
        cache->lookupAndFill(~std::uint64_t{0});

        const std::uint64_t bases[] = {0, 3 * 1234,
                                       ~std::uint64_t{0} - 64};
        const std::int64_t strides[] = {1, 3, -3, 4096};
        for (const std::uint64_t base : bases) {
            for (const std::int64_t stride : strides) {
                const unsigned n = 32;
                std::uint64_t lines[simd::kMaxGang];
                std::uint32_t want = 0;
                for (unsigned i = 0; i < n; ++i) {
                    const Addr word =
                        base + static_cast<std::uint64_t>(stride) * i;
                    lines[i] = layout.lineAddress(word);
                    want |= static_cast<std::uint32_t>(
                                cache->containsLine(lines[i]))
                            << i;
                }
                EXPECT_EQ(cache->probeHitMask(lines, n), want)
                    << name << " base=" << base
                    << " stride=" << stride;
                EXPECT_EQ(cache->probeStrideHitMask(base, stride, n),
                          want)
                    << name << " base=" << base
                    << " stride=" << stride;
            }
        }
        // The resident sentinel line itself must report a hit through
        // every probe form.
        const std::uint64_t sent_line[] = {~std::uint64_t{0}};
        EXPECT_TRUE(cache->containsLine(sent_line[0])) << name;
        EXPECT_EQ(cache->probeHitMask(sent_line, 1), 1u) << name;
    }
}

TEST(SimdDispatch, BackendListAndOverrideRoundTrip)
{
    const auto backends = simd::availableBackends();
    ASSERT_FALSE(backends.empty());
    // Scalar is always available and always listed last.
    EXPECT_EQ(backends.back(), simd::Backend::Scalar);

    const simd::Backend prev = simd::activeBackend();
    for (const simd::Backend b : backends) {
        EXPECT_TRUE(simd::setActiveBackend(b));
        EXPECT_EQ(simd::activeBackend(), b);
        EXPECT_EQ(simd::kernels().backend, b);
        EXPECT_STREQ(simd::kernels().name, simd::backendName(b));
    }
    EXPECT_TRUE(simd::setActiveBackend(prev));

    simd::Backend parsed;
    EXPECT_TRUE(simd::parseBackend("scalar", parsed));
    EXPECT_EQ(parsed, simd::Backend::Scalar);
    EXPECT_TRUE(simd::parseBackend("avx2", parsed));
    EXPECT_EQ(parsed, simd::Backend::Avx2);
    EXPECT_TRUE(simd::parseBackend("neon", parsed));
    EXPECT_EQ(parsed, simd::Backend::Neon);
    EXPECT_FALSE(simd::parseBackend("sse9", parsed));
}

} // namespace
} // namespace vcache
