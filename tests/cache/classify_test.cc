/** Tests for 3C miss classification. */

#include <algorithm>
#include <list>
#include <random>
#include <unordered_set>

#include <gtest/gtest.h>

#include "cache/classify.hh"
#include "cache/mapped.hh"

namespace vcache
{
namespace
{

/**
 * Reference shadow LRU: the std::list implementation the intrusive
 * ShadowLru replaced.  O(n) per access, kept here only to pin the
 * replacement's behaviour bit-identically.
 */
class ListShadowLru
{
  public:
    explicit ListShadowLru(std::uint64_t capacity) : cap(capacity) {}

    bool
    access(Addr line)
    {
        auto it = std::find(order.begin(), order.end(), line);
        if (it != order.end()) {
            order.splice(order.begin(), order, it);
            return true;
        }
        if (order.size() >= cap)
            order.pop_back();
        order.push_front(line);
        return false;
    }

  private:
    std::uint64_t cap;
    std::list<Addr> order;
};

/** A 3C classifier built on the reference list shadow. */
class ListClassifier
{
  public:
    explicit ListClassifier(Cache &cache)
        : target(cache), shadow(cache.numLines())
    {
    }

    void
    access(Addr word_addr)
    {
        const Addr line = target.addressLayout().lineAddress(word_addr);
        const AccessOutcome outcome = target.access(word_addr);
        const bool first_touch = seen.insert(line).second;
        const bool in_shadow = shadow.access(line);
        if (!outcome.hit) {
            if (first_touch)
                ++byClass.compulsory;
            else if (in_shadow)
                ++byClass.conflict;
            else
                ++byClass.capacity;
        }
    }

    const MissBreakdown &breakdown() const { return byClass; }

  private:
    Cache &target;
    ListShadowLru shadow;
    std::unordered_set<Addr> seen;
    MissBreakdown byClass;
};

TEST(MissClassifier, FirstTouchIsCompulsory)
{
    DirectMappedCache cache(AddressLayout(0, 3, 32));
    MissClassifier classifier(cache);
    for (Addr a = 0; a < 4; ++a)
        classifier.access(a);
    EXPECT_EQ(classifier.breakdown().compulsory, 4u);
    EXPECT_EQ(classifier.breakdown().capacity, 0u);
    EXPECT_EQ(classifier.breakdown().conflict, 0u);
}

TEST(MissClassifier, ConflictMissesDetected)
{
    // Two lines alias in the direct-mapped cache but fit in the
    // same-capacity fully-associative shadow: conflict misses.
    DirectMappedCache cache(AddressLayout(0, 3, 32));
    MissClassifier classifier(cache);
    classifier.access(0);
    classifier.access(8);  // evicts 0 (same frame), shadow keeps both
    classifier.access(0);  // miss in cache, hit in shadow -> conflict
    classifier.access(8);
    const auto &b = classifier.breakdown();
    EXPECT_EQ(b.compulsory, 2u);
    EXPECT_EQ(b.conflict, 2u);
    EXPECT_EQ(b.capacity, 0u);
}

TEST(MissClassifier, CapacityMissesDetected)
{
    // A sweep over 2x the cache size misses in the shadow LRU too.
    DirectMappedCache cache(AddressLayout(0, 3, 32));
    MissClassifier classifier(cache);
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a = 0; a < 16; ++a)
            classifier.access(a);
    const auto &b = classifier.breakdown();
    EXPECT_EQ(b.compulsory, 16u);
    EXPECT_EQ(b.capacity, 16u);
    EXPECT_EQ(b.conflict, 0u);
}

TEST(MissClassifier, PrimeCacheRemovesConflictClass)
{
    // Stride 8 sweep, re-swept: all conflict misses in the 8-line
    // direct cache, none in the 7-line prime cache.
    DirectMappedCache direct(AddressLayout(0, 3, 32));
    MissClassifier direct_cls(direct);
    PrimeMappedCache prime(AddressLayout(0, 3, 32));
    MissClassifier prime_cls(prime);

    for (int pass = 0; pass < 2; ++pass)
        for (Addr a = 0; a < 7 * 8; a += 8) {
            direct_cls.access(a);
            prime_cls.access(a);
        }

    EXPECT_EQ(direct_cls.breakdown().conflict, 7u);
    EXPECT_EQ(prime_cls.breakdown().conflict, 0u);
    EXPECT_EQ(prime_cls.breakdown().compulsory, 7u);
}

TEST(MissClassifier, TotalsMatchCacheMisses)
{
    DirectMappedCache cache(AddressLayout(0, 4, 32));
    MissClassifier classifier(cache);
    for (Addr a = 0; a < 100; ++a)
        classifier.access(a * 3);
    EXPECT_EQ(classifier.breakdown().total(), cache.stats().misses);
}

TEST(MissClassifier, ResetClearsAll)
{
    DirectMappedCache cache(AddressLayout(0, 3, 32));
    MissClassifier classifier(cache);
    classifier.access(0);
    classifier.reset();
    EXPECT_EQ(classifier.breakdown().total(), 0u);
    EXPECT_EQ(cache.stats().accesses, 0u);
    classifier.access(0);
    EXPECT_EQ(classifier.breakdown().compulsory, 1u);
}

TEST(ShadowLru, EvictsLeastRecent)
{
    ShadowLru lru(2);
    EXPECT_FALSE(lru.access(0x100));
    EXPECT_FALSE(lru.access(0x200));
    EXPECT_TRUE(lru.access(0x100));  // order now 100, 200
    EXPECT_FALSE(lru.access(0x300)); // evicts 200
    EXPECT_TRUE(lru.access(0x100));
    EXPECT_FALSE(lru.access(0x200));
    EXPECT_EQ(lru.size(), 2u);
}

TEST(ShadowLru, ClearForgetsResidents)
{
    ShadowLru lru(4);
    lru.access(1);
    lru.access(2);
    lru.clear();
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_EQ(lru.capacity(), 4u);
    EXPECT_FALSE(lru.access(1));
}

TEST(ShadowLru, DeferredCapacity)
{
    ShadowLru lru;
    lru.setCapacity(1);
    EXPECT_FALSE(lru.access(7));
    EXPECT_FALSE(lru.access(8));
    EXPECT_FALSE(lru.access(7));
    EXPECT_EQ(lru.size(), 1u);
}

TEST(ShadowLru, MatchesListReference)
{
    // Randomized traffic with hot, warm, and cold regions exercises
    // hits at every recency depth plus evictions; the intrusive list
    // must agree with the std::list reference on every access.
    std::mt19937_64 rng(12345);
    ShadowLru lru(32);
    ListShadowLru ref(32);
    std::uniform_int_distribution<int> pick(0, 2);
    std::uniform_int_distribution<Addr> hot(0, 15), warm(0, 63),
        cold(0, 4095);
    for (int i = 0; i < 20000; ++i) {
        Addr line;
        switch (pick(rng)) {
          case 0: line = hot(rng); break;
          case 1: line = warm(rng); break;
          default: line = cold(rng); break;
        }
        ASSERT_EQ(lru.access(line), ref.access(line)) << "access " << i;
    }
}

TEST(MissClassifier, BreakdownMatchesListImplementation)
{
    // Satellite regression: the intrusive-list classifier must report
    // breakdowns bit-identical to the original std::list shadow on
    // mixed-stride traffic over direct and prime mappings.
    DirectMappedCache direct(AddressLayout(0, 5, 64));
    MissClassifier direct_cls(direct);
    DirectMappedCache direct_ref_cache(AddressLayout(0, 5, 64));
    ListClassifier direct_ref(direct_ref_cache);

    PrimeMappedCache prime(AddressLayout(0, 5, 64));
    MissClassifier prime_cls(prime);
    PrimeMappedCache prime_ref_cache(AddressLayout(0, 5, 64));
    ListClassifier prime_ref(prime_ref_cache);

    std::mt19937_64 rng(99);
    std::uniform_int_distribution<Addr> base(0, 1 << 14);
    const Addr strides[] = {1, 3, 32, 256, 1024};
    for (int block = 0; block < 64; ++block) {
        const Addr b = base(rng);
        const Addr s = strides[block % 5];
        for (int rep = 0; rep < 2; ++rep)
            for (Addr i = 0; i < 48; ++i) {
                const Addr a = b + i * s;
                direct_cls.access(a);
                direct_ref.access(a);
                prime_cls.access(a);
                prime_ref.access(a);
            }
    }

    EXPECT_EQ(direct_cls.breakdown().compulsory,
              direct_ref.breakdown().compulsory);
    EXPECT_EQ(direct_cls.breakdown().capacity,
              direct_ref.breakdown().capacity);
    EXPECT_EQ(direct_cls.breakdown().conflict,
              direct_ref.breakdown().conflict);
    EXPECT_EQ(prime_cls.breakdown().compulsory,
              prime_ref.breakdown().compulsory);
    EXPECT_EQ(prime_cls.breakdown().capacity,
              prime_ref.breakdown().capacity);
    EXPECT_EQ(prime_cls.breakdown().conflict,
              prime_ref.breakdown().conflict);
    EXPECT_GT(direct_cls.breakdown().total(), 0u);
}

} // namespace
} // namespace vcache
