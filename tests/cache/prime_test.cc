/** Tests for the prime-mapped cache -- the paper's contribution. */

#include <gtest/gtest.h>

#include "cache/mapped.hh"
#include "numtheory/mersenne.hh"
#include "sim/runner.hh"
#include "trace/multistride.hh"

namespace vcache
{
namespace
{

AddressLayout
tinyLayout()
{
    return AddressLayout(0, 3, 32); // prime cache: 7 lines
}

AddressLayout
paperLayout()
{
    return AddressLayout(0, 13, 32); // prime cache: 8191 lines
}

TEST(PrimeMapped, Geometry)
{
    PrimeMappedCache cache(paperLayout());
    EXPECT_EQ(cache.numLines(), 8191u);
    EXPECT_EQ(cache.capacityWords(), 8191u);
}

TEST(PrimeMapped, ColdMissThenHit)
{
    PrimeMappedCache cache(tinyLayout());
    EXPECT_FALSE(cache.access(5).hit);
    EXPECT_TRUE(cache.access(5).hit);
}

TEST(PrimeMapped, ModuloPlacement)
{
    PrimeMappedCache cache(tinyLayout());
    cache.access(1);
    const auto out = cache.access(8); // 8 mod 7 == 1: conflict
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedLine, 1u);
}

TEST(PrimeMapped, PowerOfTwoStrideDoesNotThrash)
{
    // The direct-mapped killer: stride 8 == cache-size of the 2^3
    // cache.  In the 7-line prime cache it cycles all 7 lines.
    PrimeMappedCache cache(tinyLayout());
    for (Addr a = 0; a < 7 * 8; a += 8)
        EXPECT_FALSE(cache.access(a).hit); // compulsory only
    for (Addr a = 0; a < 7 * 8; a += 8)
        EXPECT_TRUE(cache.access(a).hit) << "addr " << a;
}

class PrimeStrideSweep : public testing::TestWithParam<std::int64_t>
{
};

TEST_P(PrimeStrideSweep, ConflictFreeUnlessMultipleOfCacheSize)
{
    // Property (Section 2.3): a B-element sweep with stride s causes
    // no self-interference in the prime cache iff s mod 8191 != 0,
    // for any B <= 8191.
    const std::int64_t stride = GetParam();
    PrimeMappedCache cache(paperLayout());
    const std::uint64_t b = 4096;
    for (std::uint64_t i = 0; i < b; ++i)
        cache.access(static_cast<Addr>(stride) * i);
    for (std::uint64_t i = 0; i < b; ++i) {
        const bool hit =
            cache.access(static_cast<Addr>(stride) * i).hit;
        if (stride % 8191 == 0)
            EXPECT_FALSE(hit);
        else
            EXPECT_TRUE(hit) << "stride " << stride << " i " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Strides, PrimeStrideSweep,
    testing::Values(1, 2, 7, 8, 64, 512, 1024, 4096, 8192, 8190, 8191,
                    2 * 8191, 12345));

TEST(PrimeMapped, RowAndDiagonalBothConflictFree)
{
    // The introduction's argument: with leading dimension P, row
    // accesses (stride P) and diagonal accesses (stride P + 1) cannot
    // both be conflict-free in any power-of-two cache, but are in the
    // prime cache whenever neither stride is a multiple of 8191.
    PrimeMappedCache prime(paperLayout());
    const std::uint64_t p = 1024; // power-of-two leading dimension
    const std::uint64_t n = 2048;

    for (std::uint64_t i = 0; i < n; ++i)
        prime.access(p * i); // row sweep
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_TRUE(prime.access(p * i).hit);

    prime.reset();
    for (std::uint64_t i = 0; i < n; ++i)
        prime.access((p + 1) * i); // diagonal sweep
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_TRUE(prime.access((p + 1) * i).hit);

    // The direct-mapped cache fails the row sweep outright.
    DirectMappedCache direct(paperLayout());
    for (std::uint64_t i = 0; i < n; ++i)
        direct.access(p * i);
    std::uint64_t row_hits = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        row_hits += direct.access(p * i).hit;
    // All 2048 rows fight over C/gcd(C,P) = 8 lines: total thrash.
    EXPECT_EQ(row_hits, 0u);
}

TEST(PrimeMapped, BeatsDirectOnRandomMultistride)
{
    const MultistrideParams params{1024, 64, 0.25, 8192, 0};
    const Trace trace = generateMultistrideTrace(params, 99);

    PrimeMappedCache prime(paperLayout());
    DirectMappedCache direct(paperLayout());
    const auto prime_stats = runTraceThroughCache(prime, trace);
    const auto direct_stats = runTraceThroughCache(direct, trace);

    EXPECT_LT(prime_stats.missRatio(), direct_stats.missRatio());
}

TEST(PrimeMapped, ResetRestoresColdCache)
{
    PrimeMappedCache cache(tinyLayout());
    cache.access(3);
    EXPECT_TRUE(cache.contains(3));
    cache.reset();
    EXPECT_FALSE(cache.contains(3));
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(PrimeMappedDeathTest, RejectsCompositeExponent)
{
    EXPECT_DEATH(PrimeMappedCache{AddressLayout(0, 11, 32)},
                 "Mersenne");
}

} // namespace
} // namespace vcache
