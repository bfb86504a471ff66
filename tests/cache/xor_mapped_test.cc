/** Tests for the XOR-hash-indexed cache. */

#include <gtest/gtest.h>

#include "cache/mapped.hh"

namespace vcache
{
namespace
{

AddressLayout
tinyLayout()
{
    return AddressLayout(0, 5, 32); // 32 lines
}

TEST(XorMapped, HashIsXorOfDigits)
{
    XorMappedCache cache(tinyLayout());
    EXPECT_EQ(cache.frameIndex(0), 0u);
    EXPECT_EQ(cache.frameIndex(5), 5u);
    // 32 + 5 = 0b100101: high digit 1 ^ low digit 5 = 4.
    EXPECT_EQ(cache.frameIndex(37), 4u);
    // Three digits: 1 ^ 2 ^ 3 = 0.
    EXPECT_EQ(cache.frameIndex((1ull << 10) | (2ull << 5) | 3), 0u);
}

TEST(XorMapped, BasicHitMiss)
{
    XorMappedCache cache(tinyLayout());
    EXPECT_FALSE(cache.access(7).hit);
    EXPECT_TRUE(cache.access(7).hit);
    EXPECT_TRUE(cache.contains(7));
    EXPECT_EQ(cache.numLines(), 32u);
}

TEST(XorMapped, PermutesButDoesNotSpreadCacheSizeStride)
{
    // Stride 32 (the line count): addresses 32k hash to k ^ (high
    // digits), a *permutation* of frames -- better than the
    // direct-mapped collapse onto frame 0, but a stride of 32*32
    // still collapses classes.
    XorMappedCache cache(tinyLayout());
    for (Addr a = 0; a < 32 * 32; a += 32)
        cache.access(a);
    for (Addr a = 0; a < 32 * 32; a += 32)
        EXPECT_TRUE(cache.access(a).hit) << a;
}

TEST(XorMapped, GfLinearityLeavesResidualConflicts)
{
    // XOR folding is linear over GF(2): addresses that differ by a
    // multiple of 2^(2c) = 1024 in the same digit pattern collide.
    // A sweep of 64 elements with stride 1024 touches only the
    // frames reachable by the third digit: the re-sweep thrashes.
    XorMappedCache xorc(tinyLayout());
    PrimeMappedCache prime(tinyLayout());
    for (int pass = 0; pass < 2; ++pass)
        for (Addr i = 0; i < 64; ++i) {
            xorc.access(i * 1024);
            prime.access(i * 1024);
        }
    // 1024 = 2^10: hash(i * 1024) = i ^ (i >> ...) stays within 32
    // frames; 64 > 32 lines collide.  The 31-line prime cache sees
    // stride 1024 mod 31 = 1: 64 > 31 also wraps, but spreads over
    // all 31 frames.
    EXPECT_LT(xorc.stats().hitRatio(), prime.stats().hitRatio() + 0.3);
    EXPECT_GT(xorc.stats().misses, 64u);
}

TEST(XorMapped, ResetAndUtilization)
{
    XorMappedCache cache(tinyLayout());
    cache.access(1);
    cache.access(2);
    EXPECT_DOUBLE_EQ(cache.utilization(), 2.0 / 32.0);
    cache.reset();
    EXPECT_EQ(cache.validLines(), 0u);
    EXPECT_EQ(cache.stats().accesses, 0u);
}

} // namespace
} // namespace vcache
