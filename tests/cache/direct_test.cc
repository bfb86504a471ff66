/** Tests for the direct-mapped cache. */

#include <gtest/gtest.h>

#include "cache/mapped.hh"

namespace vcache
{
namespace
{

AddressLayout
tinyLayout()
{
    return AddressLayout(0, 3, 32); // 8 lines, 1-word lines
}

TEST(DirectMapped, ColdMissThenHit)
{
    DirectMappedCache cache(tinyLayout());
    EXPECT_FALSE(cache.access(5).hit);
    EXPECT_TRUE(cache.access(5).hit);
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DirectMapped, ConflictingLinesEvict)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(1);
    const auto out = cache.access(9); // 9 mod 8 == 1
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedLine, 1u);
    EXPECT_FALSE(cache.access(1).hit); // 1 was displaced
}

TEST(DirectMapped, PowerOfTwoStrideThrashes)
{
    // Stride 8 over an 8-line cache: every access maps to line 0.
    DirectMappedCache cache(tinyLayout());
    for (Addr a = 0; a < 64; a += 8)
        EXPECT_FALSE(cache.access(a).hit);
    // Re-sweep: still all misses (the classic self-interference).
    for (Addr a = 0; a < 64; a += 8)
        EXPECT_FALSE(cache.access(a).hit);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(DirectMapped, UnitStrideResweepHitsWhenFitting)
{
    DirectMappedCache cache(tinyLayout());
    for (Addr a = 0; a < 8; ++a)
        cache.access(a);
    for (Addr a = 0; a < 8; ++a)
        EXPECT_TRUE(cache.access(a).hit);
}

TEST(DirectMapped, ContainsDoesNotTouchState)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(3);
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(11));
    EXPECT_EQ(cache.stats().accesses, 1u);
}

TEST(DirectMapped, ResetClearsEverything)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(3);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_EQ(cache.validLines(), 0u);
    EXPECT_FALSE(cache.contains(3));
}

TEST(DirectMapped, UtilizationAndGeometry)
{
    DirectMappedCache cache(tinyLayout());
    EXPECT_EQ(cache.numLines(), 8u);
    EXPECT_EQ(cache.capacityWords(), 8u);
    cache.access(0);
    cache.access(1);
    EXPECT_DOUBLE_EQ(cache.utilization(), 0.25);
}

TEST(DirectMapped, WiderLinesShareFrames)
{
    // 4-word lines: addresses 0..3 share one line.
    DirectMappedCache cache(AddressLayout(2, 3, 32));
    EXPECT_FALSE(cache.access(0).hit);
    EXPECT_TRUE(cache.access(1).hit);
    EXPECT_TRUE(cache.access(3).hit);
    EXPECT_FALSE(cache.access(4).hit); // next line
    EXPECT_EQ(cache.capacityWords(), 32u);
}

TEST(DirectMapped, WriteCountsSeparately)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(0, AccessType::Write);
    cache.access(0, AccessType::Read);
    EXPECT_EQ(cache.stats().writes, 1u);
    EXPECT_EQ(cache.stats().reads, 1u);
}

TEST(DirectMapped, WritebackAccounting)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(0, AccessType::Write); // dirty line 0
    cache.access(8);                    // evicts dirty 0 -> writeback
    EXPECT_EQ(cache.stats().writebacks, 1u);
    cache.access(16);                   // evicts clean 8 -> none
    EXPECT_EQ(cache.stats().writebacks, 1u);
    cache.access(16, AccessType::Write);
    cache.access(24);                   // dirty 16 out again
    EXPECT_EQ(cache.stats().writebacks, 2u);
}

TEST(DirectMapped, ReadingDirtyLineKeepsItDirty)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(0, AccessType::Write);
    cache.access(0, AccessType::Read); // hit, still dirty
    cache.access(8);                   // eviction must write back
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(DirectMapped, ResetClearsDirtyState)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(0, AccessType::Write);
    cache.reset();
    cache.access(0); // refill clean
    cache.access(8); // evict: no writeback
    EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(DirectMapped, PrefetchEvictingDirtyLineWritesBack)
{
    DirectMappedCache cache(tinyLayout());
    cache.access(0, AccessType::Write);
    EXPECT_TRUE(cache.insert(8)); // prefetch displaces dirty 0
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

} // namespace
} // namespace vcache
