#include "util/flat_hash.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.hh"

namespace
{

using namespace vcache;

TEST(FlatSet, InsertFindErase)
{
    FlatSet<std::uint64_t> set;
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.insert(7));
    EXPECT_FALSE(set.insert(7));
    EXPECT_TRUE(set.contains(7));
    EXPECT_FALSE(set.contains(8));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.erase(7));
    EXPECT_FALSE(set.erase(7));
    EXPECT_TRUE(set.empty());
}

TEST(FlatSet, ClearKeepsWorking)
{
    FlatSet<std::uint64_t> set;
    for (std::uint64_t i = 0; i < 100; ++i)
        set.insert(i);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(set.contains(i));
    EXPECT_TRUE(set.insert(3));
    EXPECT_EQ(set.size(), 1u);
}

TEST(FlatSet, GrowsAcrossRehash)
{
    FlatSet<std::uint64_t> set;
    constexpr std::uint64_t kN = 10000;
    for (std::uint64_t i = 0; i < kN; ++i)
        EXPECT_TRUE(set.insert(i * 0x10001));
    EXPECT_EQ(set.size(), kN);
    for (std::uint64_t i = 0; i < kN; ++i)
        EXPECT_TRUE(set.contains(i * 0x10001));
    EXPECT_FALSE(set.contains(1));
}

TEST(FlatSet, ReserveAvoidsRehashAndKeepsEntries)
{
    FlatSet<std::uint64_t> set;
    set.insert(5);
    set.reserve(1000);
    const std::size_t cap = set.capacity();
    EXPECT_GE(cap, 2000u); // load stays <= 1/2
    EXPECT_TRUE(set.contains(5));
    for (std::uint64_t i = 0; i < 1000; ++i)
        set.insert(i * 977);
    EXPECT_EQ(set.capacity(), cap) << "reserved table rehashed";
    // reserve() never shrinks.
    set.reserve(1);
    EXPECT_EQ(set.capacity(), cap);
}

TEST(FlatSet, ReserveOnGrowthAllocatesAtTheFirstInsert)
{
    FlatSet<std::uint64_t> set;
    set.reserveOnGrowth(1000);
    EXPECT_EQ(set.capacity(), 0u) << "allocated before any insert";
    set.insert(5);
    const std::size_t cap = set.capacity();
    EXPECT_GE(cap, 2000u); // the pending size, at load <= 1/2
    for (std::uint64_t i = 0; i < 1000; ++i)
        set.insert(i * 977);
    EXPECT_EQ(set.capacity(), cap) << "reserved table rehashed";
    EXPECT_TRUE(set.contains(5));
    EXPECT_EQ(set.size(), 1001u);
    // Once taken, the pending size is spent: growth doubles again.
    for (std::uint64_t i = 0; i < 2 * cap; ++i)
        set.insert(3 + i * 977);
    EXPECT_EQ(set.size(), 1001u + 2 * cap);
}

TEST(FlatSet, ClearKeepsCapacity)
{
    FlatSet<std::uint64_t> set;
    set.reserve(4096);
    const std::size_t cap = set.capacity();
    for (std::uint64_t i = 0; i < 3000; ++i)
        set.insert(i);
    set.insert(~std::uint64_t{0});
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.capacity(), cap);
    EXPECT_FALSE(set.contains(~std::uint64_t{0}));
    EXPECT_FALSE(set.contains(17));
    set.clear(); // clearing an empty table is a no-op
    EXPECT_EQ(set.capacity(), cap);
    EXPECT_TRUE(set.insert(17));
}

/**
 * All-ones is the set's empty-slot marker, carried out of band: it
 * must behave like any other key through every operation, and must
 * not disturb the in-table keys around it.
 */
TEST(FlatSet, AllOnesKeyIsAnOrdinaryMember)
{
    constexpr std::uint64_t kOnes = ~std::uint64_t{0};
    for (const bool reserved : {false, true}) {
        FlatSet<std::uint64_t> set;
        if (reserved)
            set.reserve(64);
        EXPECT_FALSE(set.contains(kOnes));
        EXPECT_FALSE(set.erase(kOnes));
        EXPECT_TRUE(set.insert(kOnes));
        EXPECT_FALSE(set.insert(kOnes));
        EXPECT_TRUE(set.contains(kOnes));
        EXPECT_EQ(set.size(), 1u);
        EXPECT_FALSE(set.empty());
        for (std::uint64_t k = 0; k < 40; ++k)
            set.insert(kOnes - 1 - k);
        EXPECT_EQ(set.size(), 41u);

        std::vector<std::uint64_t> seen;
        set.forEach([&](std::uint64_t key) { seen.push_back(key); });
        EXPECT_EQ(seen.size(), 41u);
        EXPECT_EQ(std::count(seen.begin(), seen.end(), kOnes), 1);

        EXPECT_TRUE(set.erase(kOnes));
        EXPECT_FALSE(set.erase(kOnes));
        EXPECT_FALSE(set.contains(kOnes));
        EXPECT_EQ(set.size(), 40u);
        for (std::uint64_t k = 0; k < 40; ++k)
            EXPECT_TRUE(set.contains(kOnes - 1 - k)) << k;
        seen.clear();
        set.forEach([&](std::uint64_t key) { seen.push_back(key); });
        EXPECT_EQ(std::count(seen.begin(), seen.end(), kOnes), 0);
    }
}

TEST(FlatMap, ReserveAvoidsRehashAndKeepsEntries)
{
    FlatMap<std::uint64_t, int> map;
    map[3] = 30;
    map.reserve(700);
    const std::size_t cap = map.capacity();
    EXPECT_EQ(*map.find(3), 30);
    for (std::uint64_t i = 0; i < 700; ++i)
        map.insertOrAssign(i + 100, 1);
    EXPECT_EQ(map.capacity(), cap) << "reserved table rehashed";
    EXPECT_EQ(*map.find(3), 30);
}

TEST(FlatMap, OperatorIndexAndFind)
{
    FlatMap<std::uint64_t, int> map;
    map[5] = 50;
    map[6] = 60;
    ASSERT_NE(map.find(5), nullptr);
    EXPECT_EQ(*map.find(5), 50);
    EXPECT_EQ(map.find(7), nullptr);
    map[5] = 51;
    EXPECT_EQ(*map.find(5), 51);
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, InsertOrAssignReportsFreshness)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.insertOrAssign(1, 10));
    EXPECT_FALSE(map.insertOrAssign(1, 11));
    EXPECT_EQ(*map.find(1), 11);
}

/** Colliding hash: every key lands on one bucket, so every probe
 *  chain is maximal and erase's backward shift is fully exercised. */
struct CollidingHash
{
    std::size_t operator()(std::uint64_t) const { return 0; }
};

TEST(FlatMap, EraseBackwardShiftUnderFullCollision)
{
    FlatMap<std::uint64_t, std::uint64_t, CollidingHash> map;
    for (std::uint64_t k = 0; k < 8; ++k)
        map.insertOrAssign(k, k * 10);
    // Remove from the middle of the single chain, then verify every
    // survivor is still reachable.
    EXPECT_TRUE(map.erase(3));
    EXPECT_TRUE(map.erase(0));
    for (std::uint64_t k = 0; k < 8; ++k) {
        if (k == 3 || k == 0) {
            EXPECT_EQ(map.find(k), nullptr) << k;
        } else {
            ASSERT_NE(map.find(k), nullptr) << k;
            EXPECT_EQ(*map.find(k), k * 10);
        }
    }
    // Reinsertion after the shift keeps the chain consistent.
    EXPECT_TRUE(map.insertOrAssign(3, 33));
    EXPECT_EQ(*map.find(3), 33u);
}

/**
 * Identity hash: the slot is the key's top log2(capacity) bits, so
 * tests can place chains exactly with homedAt().
 */
struct IdentityHash
{
    std::size_t
    operator()(std::uint64_t x) const
    {
        return static_cast<std::size_t>(x);
    }
};

/**
 * The `tag`-th distinct key homed on `slot` of a `capacity`-slot
 * table under IdentityHash: the slot in the top bits, the tag below.
 */
std::uint64_t
homedAt(std::uint64_t slot, std::uint64_t capacity, std::uint64_t tag = 0)
{
    return (slot << (64 - std::countr_zero(capacity))) | tag;
}

/**
 * UB-audit regression (hot-path vectorization review): the erase
 * backward shift compares probe distances with wraparound arithmetic
 * (`(j - home) & mask`).  Pin the case where the probe chain crosses
 * the table-end boundary -- home slots near capacity-1, displaced
 * entries at indices 0 and 1 -- and erase from every position in the
 * wrapped chain.  The probe loop itself is a linear scan with no
 * match masks, so there is no __builtin_ctz-on-zero to misfire; this
 * pins the one place the index arithmetic wraps.
 */
TEST(FlatMap, EraseBackwardShiftAcrossWraparound)
{
    // Table stays at kMinCapacity = 16 below 14 entries; three keys
    // home on slot 15, so with one key occupying slot 14 the chain
    // wraps into slots 0 and 1.
    const std::uint64_t keys[] = {homedAt(14, 16), homedAt(15, 16),
                                  homedAt(15, 16, 1),
                                  homedAt(15, 16, 2)};
    for (const std::uint64_t victim : keys) {
        FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
        for (const std::uint64_t k : keys)
            map.insertOrAssign(k, k + 1000);
        EXPECT_TRUE(map.erase(victim));
        EXPECT_FALSE(map.erase(victim));
        for (const std::uint64_t k : keys) {
            if (k == victim) {
                EXPECT_EQ(map.find(k), nullptr) << k;
            } else {
                ASSERT_NE(map.find(k), nullptr)
                    << "lost key " << k << " erasing " << victim;
                EXPECT_EQ(*map.find(k), k + 1000);
            }
        }
        // The survivors' chain still accepts reinsertion and lookup
        // across the boundary.
        EXPECT_TRUE(map.insertOrAssign(victim, 7));
        EXPECT_EQ(*map.find(victim), 7u);
    }
}

/**
 * The same wraparound chains through the compact set, both at its
 * minimum size and in a presized table where the chain crosses the
 * end of a larger slot array.
 */
TEST(FlatSet, EraseBackwardShiftAcrossWraparound)
{
    // reserve(0) leaves the minimum 16-slot table.
    for (const std::uint64_t reserved : {0ull, 1000ull}) {
        FlatSet<std::uint64_t, IdentityHash> probe;
        probe.reserve(reserved);
        const std::uint64_t cap = probe.capacity();
        // Keys homed on the last two slots; those homed on cap-1
        // spill across the boundary into slots 0 and 1.
        const std::uint64_t keys[] = {
            homedAt(cap - 2, cap), homedAt(cap - 1, cap),
            homedAt(cap - 1, cap, 1), homedAt(cap - 1, cap, 2)};
        for (const std::uint64_t victim : keys) {
            FlatSet<std::uint64_t, IdentityHash> set;
            set.reserve(reserved);
            for (const std::uint64_t k : keys)
                set.insert(k);
            ASSERT_EQ(set.capacity(), cap);
            EXPECT_TRUE(set.erase(victim));
            EXPECT_FALSE(set.erase(victim));
            for (const std::uint64_t k : keys)
                EXPECT_EQ(set.contains(k), k != victim)
                    << "key " << k << " erasing " << victim;
            EXPECT_TRUE(set.insert(victim));
            for (const std::uint64_t k : keys)
                EXPECT_TRUE(set.contains(k)) << k;
        }
    }
}

/**
 * An entry whose home slot follows the gap around the wrap boundary
 * must NOT be shifted back (its probe distance does not reach the
 * gap); erasing slot 15 with an independent chain at 0 must leave
 * that chain alone.
 */
TEST(FlatMap, EraseAtBoundaryLeavesIndependentChain)
{
    FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
    const std::uint64_t last = homedAt(15, 16);
    const std::uint64_t first = homedAt(0, 16);
    const std::uint64_t next = homedAt(0, 16, 1); // same home as first
    map.insertOrAssign(last, 150);
    map.insertOrAssign(first, 100);
    map.insertOrAssign(next, 200);
    EXPECT_TRUE(map.erase(last));
    ASSERT_NE(map.find(first), nullptr);
    EXPECT_EQ(*map.find(first), 100u);
    ASSERT_NE(map.find(next), nullptr);
    EXPECT_EQ(*map.find(next), 200u);
    EXPECT_EQ(map.find(last), nullptr);
}

/**
 * Strided progressions -- the simulators' first-touch traffic -- stay
 * nearly collision-free under Fibonacci slots: 16K-key progressions
 * at half load keep every run of occupied slots short, presized or
 * grown by doubling.  (A random-placement hash such as splitmix64
 * leaves runs of 24-46 slots on these same keys.)
 */
TEST(FlatSet, StridedProgressionsSpreadEvenly)
{
    std::vector<std::uint64_t> strides = {1, 7, 8191, 8192};
    for (unsigned k = 0; k <= 32; ++k)
        strides.push_back(std::uint64_t{1} << k);
    constexpr std::uint64_t kKeys = 16384;
    for (const std::uint64_t base : {0ull, 0x12345ull}) {
        for (const std::uint64_t stride : strides) {
            FlatSet<std::uint64_t> presized;
            presized.reserve(kKeys);
            FlatSet<std::uint64_t> grown;
            for (std::uint64_t i = 0; i < kKeys; ++i) {
                presized.insert(base + i * stride);
                grown.insert(base + i * stride);
            }
            ASSERT_EQ(presized.size(), kKeys);
            ASSERT_EQ(grown.size(), kKeys);
            EXPECT_LE(presized.longestRun(), 16u)
                << "stride " << stride << " base " << base;
            EXPECT_LE(grown.longestRun(), 16u)
                << "stride " << stride << " base " << base;
        }
    }
}

/**
 * The satellite differential test: random interleavings of
 * insert/erase/find/clear against the std containers, with a key
 * range small enough that erases hit and chains overlap, across
 * enough operations to cross several growth rehashes.
 */
TEST(FlatHashDifferential, SetMatchesUnorderedSet)
{
    Rng rng(2024);
    FlatSet<std::uint64_t> flat;
    std::unordered_set<std::uint64_t> ref;

    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = rng.uniformInt(0, 4095);
        const std::uint64_t what = rng.uniformInt(0, 99);
        if (what < 55) {
            EXPECT_EQ(flat.insert(key), ref.insert(key).second);
        } else if (what < 85) {
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        } else if (what < 99) {
            EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
        } else {
            flat.clear();
            ref.clear();
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    // Full-content sweep at the end.
    for (std::uint64_t key = 0; key < 4096; ++key)
        EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
    std::uint64_t seen = 0;
    flat.forEach([&](std::uint64_t key) {
        ++seen;
        EXPECT_TRUE(ref.count(key)) << key;
    });
    EXPECT_EQ(seen, ref.size());
}

/**
 * The same differential run on a presized set: the table never
 * rehashes, so every chain lives its whole life in one slot array,
 * and clear() must reset it without losing the reservation.
 */
TEST(FlatHashDifferential, ReservedSetMatchesUnorderedSet)
{
    Rng rng(4242);
    FlatSet<std::uint64_t> flat;
    flat.reserve(4096);
    const std::size_t cap = flat.capacity();
    std::unordered_set<std::uint64_t> ref;

    for (int op = 0; op < 200000; ++op) {
        // Keys near the top of the range include the all-ones marker.
        std::uint64_t key = rng.uniformInt(0, 4095);
        if (key >= 4000)
            key = ~std::uint64_t{0} - (key - 4000);
        const std::uint64_t what = rng.uniformInt(0, 99);
        if (what < 55) {
            EXPECT_EQ(flat.insert(key), ref.insert(key).second);
        } else if (what < 85) {
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        } else if (what < 99) {
            EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
        } else {
            flat.clear();
            ref.clear();
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
    EXPECT_EQ(flat.capacity(), cap);

    for (const std::uint64_t key : ref)
        EXPECT_TRUE(flat.contains(key)) << key;
    std::uint64_t seen = 0;
    flat.forEach([&](std::uint64_t key) {
        ++seen;
        EXPECT_TRUE(ref.count(key)) << key;
    });
    EXPECT_EQ(seen, ref.size());
}

TEST(FlatHashDifferential, MapMatchesUnorderedMap)
{
    Rng rng(77);
    FlatMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = rng.uniformInt(0, 2047);
        const std::uint64_t what = rng.uniformInt(0, 99);
        if (what < 35) {
            const std::uint64_t value = rng.next();
            EXPECT_EQ(flat.insertOrAssign(key, value),
                      ref.insert_or_assign(key, value).second);
        } else if (what < 55) {
            // operator[] default-constructs on first touch, like std.
            EXPECT_EQ(flat[key], ref[key]);
            const std::uint64_t value = rng.next();
            flat[key] = value;
            ref[key] = value;
        } else if (what < 85) {
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        } else if (what < 99) {
            const auto *hit = flat.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(hit != nullptr, it != ref.end());
            if (hit) {
                EXPECT_EQ(*hit, it->second);
            }
        } else {
            flat.clear();
            ref.clear();
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    std::uint64_t seen = 0;
    flat.forEach([&](std::uint64_t key, std::uint64_t value) {
        ++seen;
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << key;
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(seen, ref.size());
}

} // namespace
