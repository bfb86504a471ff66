/** Tests for the Fu & Patel-style prefetching front end. */

#include <gtest/gtest.h>

#include "cache/mapped.hh"
#include "cache/prefetch.hh"
#include "sim/runner.hh"
#include "trace/multistride.hh"

namespace vcache
{
namespace
{

AddressLayout
tinyLayout()
{
    return AddressLayout(0, 5, 32); // 32 lines
}

TEST(Prefetch, InsertDoesNotCountAsAccess)
{
    DirectMappedCache cache(tinyLayout());
    EXPECT_TRUE(cache.insert(5));
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.contains(5));
    EXPECT_FALSE(cache.insert(5)); // already resident
}

TEST(Prefetch, SequentialFetchesNextLines)
{
    DirectMappedCache cache(tinyLayout());
    PrefetchingCache front(cache, PrefetchPolicy::Sequential, 2);
    front.access(10); // miss -> prefetch 11, 12
    EXPECT_TRUE(cache.contains(11));
    EXPECT_TRUE(cache.contains(12));
    EXPECT_FALSE(cache.contains(13));
    EXPECT_EQ(front.prefetchStats().issued, 2u);
}

TEST(Prefetch, SequentialTurnsUnitStrideMissesIntoHits)
{
    DirectMappedCache cache(tinyLayout());
    PrefetchingCache front(cache, PrefetchPolicy::Sequential, 1);
    front.beginStream(1);
    for (Addr a = 0; a < 16; ++a)
        front.access(a);
    // Tagged prefetching keeps one line ahead: only the first access
    // misses.
    EXPECT_EQ(cache.stats().hits, 15u);
    EXPECT_EQ(front.prefetchStats().useful, 15u);
    // One prefetch (the 16th) is issued but never consumed.
    EXPECT_EQ(front.prefetchStats().issued, 16u);
}

TEST(Prefetch, SequentialUselessForLargeStrides)
{
    DirectMappedCache cache(tinyLayout());
    PrefetchingCache front(cache, PrefetchPolicy::Sequential, 1);
    front.beginStream(8);
    for (Addr a = 0; a < 16 * 8; a += 8)
        front.access(a);
    EXPECT_EQ(front.prefetchStats().useful, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Prefetch, StrideSchemeFollowsAnnouncedStride)
{
    DirectMappedCache cache(tinyLayout());
    PrefetchingCache front(cache, PrefetchPolicy::Stride, 1);
    front.beginStream(5);
    for (Addr a = 0; a < 16 * 5; a += 5)
        front.access(a);
    // After the first miss every access hits its prefetched line.
    EXPECT_EQ(cache.stats().hits, 15u);
    EXPECT_EQ(front.prefetchStats().useful, 15u);
}

TEST(Prefetch, StrideSchemeCannotFixInterference)
{
    // The paper's argument: prefetching hides latency, not
    // *interference*.  Two interleaved stride-32 streams collapse
    // onto frame 0 of the 32-line direct-mapped cache; each stream's
    // prefetch evicts the other's next line, so nothing ever hits.
    DirectMappedCache cache(tinyLayout());
    PrefetchingCache front(cache, PrefetchPolicy::Stride, 1);
    front.beginStream(32);
    // 480 = 32 * 15: frame 0 again in the direct cache, but 15 lines
    // away (mod 31) in the prime cache, so the streams barely touch.
    const Addr second_base = 32 * 15;
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr i = 0; i < 16; ++i) {
            front.access(32 * i);
            front.access(second_base + 32 * i);
        }
    }
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(front.prefetchStats().useful, 0u);
    EXPECT_GT(front.prefetchStats().issued, 0u);

    // The prime cache needs no prefetching: stride 32 == 1 (mod 31)
    // spreads both streams, so the second pass mostly hits.
    PrimeMappedCache prime(tinyLayout());
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr i = 0; i < 16; ++i) {
            prime.access(32 * i);
            prime.access(second_base + 32 * i);
        }
    }
    EXPECT_GT(prime.stats().hitRatio(), 0.4);
}

TEST(Prefetch, NonePolicyIsTransparent)
{
    DirectMappedCache cache(tinyLayout());
    PrefetchingCache front(cache, PrefetchPolicy::None, 1);
    for (Addr a = 0; a < 10; ++a)
        front.access(a);
    EXPECT_EQ(front.prefetchStats().issued, 0u);
    EXPECT_EQ(cache.stats().misses, 10u);
}

TEST(Prefetch, RunnerAnnouncesStrides)
{
    DirectMappedCache cache(AddressLayout(0, 13, 32));
    PrefetchingCache front(cache, PrefetchPolicy::Stride, 2);
    const auto trace = generateMultistrideTrace(
        MultistrideParams{256, 8, 0.25, 64, 0, 2}, 3);
    const auto stats = runTraceWithPrefetch(front, trace);
    EXPECT_EQ(stats.accesses, 256u * 16u);
    EXPECT_GT(front.prefetchStats().issued, 0u);
    EXPECT_GT(stats.hitRatio(), 0.5); // strides known -> mostly hits
}

TEST(Prefetch, ResetClearsEverything)
{
    DirectMappedCache cache(tinyLayout());
    PrefetchingCache front(cache, PrefetchPolicy::Sequential, 2);
    front.access(0);
    front.reset();
    EXPECT_EQ(front.prefetchStats().issued, 0u);
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_FALSE(cache.contains(1));
}

TEST(Prefetch, PolicyNames)
{
    EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::None), "none");
    EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::Sequential),
                 "sequential");
    EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::Stride), "stride");
}

} // namespace
} // namespace vcache
