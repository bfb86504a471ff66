/** Tests for the prime set-associative cache extension. */

#include <gtest/gtest.h>

#include "cache/factory.hh"
#include "cache/mapped.hh"
#include "cache/set_assoc.hh"

namespace vcache
{
namespace
{

std::unique_ptr<SetAssociativeCache>
makeTwoWay(unsigned index_bits)
{
    return std::make_unique<SetAssociativeCache>(
        AddressLayout(0, index_bits, 32), 2,
        std::make_unique<LruPolicy>(), simd::IndexMap::Mersenne);
}

TEST(PrimeSetAssoc, Geometry)
{
    const auto cache = makeTwoWay(13);
    EXPECT_EQ(cache->numSets(), 8191u);
    EXPECT_EQ(cache->associativity(), 2u);
    EXPECT_EQ(cache->numLines(), 16382u);
}

TEST(PrimeSetAssoc, AbsorbsModulusAliases)
{
    // Addresses a and a + 8191 share a set; the direct prime cache
    // thrashes on the alternation, two ways hold both.
    const auto cache = makeTwoWay(13);
    for (int r = 0; r < 4; ++r) {
        cache->access(5);
        cache->access(5 + 8191);
    }
    EXPECT_EQ(cache->stats().misses, 2u);
    EXPECT_EQ(cache->stats().hits, 6u);

    PrimeMappedCache direct_prime(AddressLayout(0, 13, 32));
    for (int r = 0; r < 4; ++r) {
        direct_prime.access(5);
        direct_prime.access(5 + 8191);
    }
    EXPECT_EQ(direct_prime.stats().hits, 0u);
}

TEST(PrimeSetAssoc, StillConflictFreeOnPowerOfTwoStrides)
{
    // The prime set count keeps the headline property.
    const auto cache = makeTwoWay(13);
    const std::uint64_t b = 8191;
    for (std::uint64_t i = 0; i < b; ++i)
        cache->access(1024 * i);
    for (std::uint64_t i = 0; i < b; ++i)
        EXPECT_TRUE(cache->access(1024 * i).hit) << i;
}

TEST(PrimeSetAssoc, LruEvictsWithinSet)
{
    const auto cache = makeTwoWay(3); // 7 sets, 2 ways
    cache->access(0);      // set 0
    cache->access(7);      // set 0
    cache->access(0);      // refresh
    const auto out = cache->access(14); // set 0: evict 7
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedLine, 7u);
    EXPECT_TRUE(cache->contains(0));
    EXPECT_FALSE(cache->contains(7));
}

TEST(PrimeSetAssoc, LruCannotFixCyclicWraparound)
{
    // The sub-block wraparound case (DESIGN.md note 9): P = 1024,
    // 64 x 64 block, up to 8 columns claim each set *cyclically*.
    // Section 2.1's argument -- "serial access to vectors dictates
    // against LRU" -- applies to the prime cache too: with more
    // cyclic claimants than ways, LRU evicts each line just before
    // its reuse, and 2-way associativity buys almost nothing.
    auto sweep = [](Cache &cache) {
        for (int pass = 0; pass < 2; ++pass)
            for (std::uint64_t c = 0; c < 64; ++c)
                for (std::uint64_t r = 0; r < 64; ++r)
                    cache.access(1024 * c + r);
        return cache.stats().misses;
    };

    PrimeMappedCache plain(AddressLayout(0, 13, 32));
    const auto plain_misses = sweep(plain);
    const auto assoc = makeTwoWay(13);
    const auto assoc_misses = sweep(*assoc);
    EXPECT_GT(assoc_misses, plain_misses * 9 / 10);
    EXPECT_LE(assoc_misses, plain_misses);
}

TEST(PrimeSetAssoc, FactoryBuildsIt)
{
    CacheConfig config;
    config.organization = Organization::PrimeSetAssociative;
    config.indexBits = 7;
    config.associativity = 4;
    const auto cache = makeCache(config);
    EXPECT_EQ(cache->numLines(), 127u * 4u);
    EXPECT_NE(describe(config).find("prime-set-associative"),
              std::string::npos);
    EXPECT_NE(describe(config).find("4-way"), std::string::npos);
}

TEST(PrimeSetAssocDeathTest, RejectsCompositeExponent)
{
    EXPECT_DEATH(SetAssociativeCache(AddressLayout(0, 11, 32), 2,
                                     std::make_unique<LruPolicy>(),
                                     simd::IndexMap::Mersenne),
                 "Mersenne");
}

} // namespace
} // namespace vcache
