/**
 * @file
 * Open-addressing hash containers for the simulator hot path.
 *
 * std::unordered_{set,map} cost one allocation per node and a pointer
 * chase per probe; on the per-element simulator path (touched-line
 * tracking, in-flight prefetch arrivals, 3C bookkeeping) those
 * dominate the profile.  FlatSet/FlatMap store entries inline in one
 * power-of-two array with linear probing, so a lookup is a
 * multiply, a shift and a short scan, and the only allocations ever
 * made are the doubling rehashes -- none at all once reserve() has
 * sized the table for the run.
 *
 * Slots are Fibonacci-hashed: a table of 2^k slots homes a key at the
 * top k bits of hash(key), and the default hash is the multiply by
 * 2^64/phi (0x9E3779B97F4A7C15).  The simulators' keys are line
 * addresses of constant-stride streams, i.e. arithmetic progressions
 * b + i*s, and by the three-distance theorem the fractional parts of
 * i*s/phi fall into near-equal gaps, so such a stream spreads across
 * the table almost without collisions (where a mixing hash would pay
 * the birthday-paradox chains of random placement).  A custom Hash
 * works too, but it is its *top* bits that pick the slot.
 *
 * FlatSet is the compact one: a slot is just the key, with the
 * all-ones key as the empty marker (load <= 1/2, so chains stay
 * short).  The all-ones key itself is still a legal member; it is
 * carried out of band in a flag, the way TagArray keeps its sentinel
 * line.  FlatMap keeps a per-slot used flag (load < 7/8) because its
 * values make the slot wide anyway.
 *
 * Erase is tombstone-free: removing an entry backward-shifts the
 * following probe chain into the gap, so tables never degrade with
 * churn and load-factor math stays exact.  Iteration order is
 * unspecified (as with the std containers); both containers are
 * differentially tested against their std counterparts.
 *
 * UB audit (SIMD hot-path review): the probe loop is a plain linear
 * scan -- no group metadata, no match masks, and therefore no
 * __builtin_ctz on a possibly-zero mask.  The slot shift is
 * 64 - log2(capacity) with capacity >= 16, never a full-width shift
 * (an empty table is never probed).  The only other subtle
 * arithmetic is the wraparound probe-distance comparison in erase()
 * (`(j - home) & mask` on unsigned size_t, well-defined mod-2^N); the
 * wraparound-chain regression tests in tests/util/flat_hash_test.cc
 * pin it.
 */

#ifndef VCACHE_UTIL_FLAT_HASH_HH
#define VCACHE_UTIL_FLAT_HASH_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace vcache
{

static_assert(sizeof(std::size_t) == 8,
              "slots are the top bits of a 64-bit hash");

/** Default integer hash: Fibonacci multiplication by 2^64/phi. */
struct FlatHash64
{
    std::size_t
    operator()(std::uint64_t x) const
    {
        return static_cast<std::size_t>(x * 0x9e3779b97f4a7c15ull);
    }
};

/** log2(capacity) high bits of a hash select the slot (see above). */
constexpr unsigned
flatSlotShift(std::size_t capacity)
{
    return 64u - static_cast<unsigned>(std::countr_zero(capacity));
}

/**
 * Open-addressing hash map with inline storage.
 *
 * @tparam Key key type (hashed by Hash; compared with ==)
 * @tparam Value mapped type (default-constructible)
 * @tparam Hash hash functor
 */
template <typename Key, typename Value, typename Hash = FlatHash64>
class FlatMap
{
  public:
    FlatMap() = default;

    /** Number of live entries. */
    std::size_t size() const { return count; }

    bool empty() const { return count == 0; }

    /** Slots allocated (grows by doubling; reserve() presizes). */
    std::size_t capacity() const { return slots.size(); }

    /** Pointer to the mapped value, or nullptr when absent. */
    Value *
    find(const Key &key)
    {
        if (count == 0)
            return nullptr;
        const std::size_t i = probe(key);
        return slots[i].used ? &slots[i].value : nullptr;
    }

    const Value *
    find(const Key &key) const
    {
        if (count == 0)
            return nullptr;
        const std::size_t i = probe(key);
        return slots[i].used ? &slots[i].value : nullptr;
    }

    bool contains(const Key &key) const { return find(key) != nullptr; }

    /**
     * Insert key with a default value if absent.
     * @return reference to the mapped value (stable until the next
     *         insertion)
     */
    Value &
    operator[](const Key &key)
    {
        reserveOne();
        const std::size_t i = probe(key);
        if (!slots[i].used) {
            slots[i].used = true;
            slots[i].key = key;
            slots[i].value = Value{};
            ++count;
        }
        return slots[i].value;
    }

    /** Insert or overwrite; @return true if the key was new. */
    bool
    insertOrAssign(const Key &key, Value value)
    {
        reserveOne();
        const std::size_t i = probe(key);
        const bool fresh = !slots[i].used;
        if (fresh) {
            slots[i].used = true;
            slots[i].key = key;
            ++count;
        }
        slots[i].value = std::move(value);
        return fresh;
    }

    /** Remove a key; @return true if it was present. */
    bool
    erase(const Key &key)
    {
        if (count == 0)
            return false;
        std::size_t gap = probe(key);
        if (!slots[gap].used)
            return false;

        // Tombstone-free removal: walk the chain after the gap and
        // shift back every entry whose probe distance reaches across
        // the gap, so later lookups never hit a hole mid-chain.
        const std::size_t mask = slots.size() - 1;
        std::size_t j = gap;
        for (;;) {
            j = (j + 1) & mask;
            if (!slots[j].used)
                break;
            const std::size_t home = slotOf(slots[j].key);
            if (((j - home) & mask) >= ((j - gap) & mask)) {
                slots[gap] = std::move(slots[j]);
                gap = j;
            }
        }
        slots[gap].used = false;
        slots[gap].value = Value{};
        --count;
        return true;
    }

    /**
     * Size the table so that `n` entries fit without a rehash.  Never
     * shrinks; existing entries are kept.
     */
    void
    reserve(std::size_t n)
    {
        // reserveOne() grows once (count + 1) * 8 >= capacity * 7.
        const std::size_t want =
            std::bit_ceil(std::max(kMinCapacity, n + n / 7 + 1));
        if (want > slots.size())
            rehash(want);
    }

    /** Drop every entry but keep the table's capacity. */
    void
    clear()
    {
        if (count == 0)
            return;
        for (auto &s : slots) {
            s.used = false;
            s.value = Value{};
        }
        count = 0;
    }

    /** Visit every (key, value) pair in unspecified order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const auto &s : slots)
            if (s.used)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Key key{};
        Value value{};
        bool used = false;
    };

    /**
     * Index of the key's slot if present, else of the empty slot
     * where it would be inserted.  Requires a non-empty table.
     */
    std::size_t
    probe(const Key &key) const
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = slotOf(key);
        while (slots[i].used && !(slots[i].key == key))
            i = (i + 1) & mask;
        return i;
    }

    /** Home slot of `key` in the current table. */
    std::size_t slotOf(const Key &key) const { return hash(key) >> shift; }

    /** Guarantee room for one more entry at < 7/8 load. */
    void
    reserveOne()
    {
        if (slots.empty())
            rehash(kMinCapacity);
        else if ((count + 1) * 8 >= slots.size() * 7)
            rehash(slots.size() * 2);
    }

    /** Move every entry into a fresh table of `capacity` slots. */
    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots);
        shift = flatSlotShift(capacity);
        const std::size_t mask = slots.size() - 1;
        for (auto &s : old) {
            if (!s.used)
                continue;
            std::size_t i = slotOf(s.key);
            while (slots[i].used)
                i = (i + 1) & mask;
            slots[i] = std::move(s);
        }
    }

    static constexpr std::size_t kMinCapacity = 16;

    std::vector<Slot> slots;
    std::size_t count = 0;
    /** flatSlotShift(capacity()), refreshed on every rehash. */
    unsigned shift = 64;
    [[no_unique_address]] Hash hash{};
};

/**
 * Open-addressing hash set of unsigned integer keys, one key per
 * slot (see the file comment for the empty-marker scheme).
 */
template <typename Key, typename Hash = FlatHash64>
class FlatSet
{
    static_assert(std::is_unsigned_v<Key>,
                  "FlatSet keys are unsigned integers (all-ones marks "
                  "an empty slot)");

  public:
    FlatSet() = default;

    /** Number of live entries. */
    std::size_t size() const { return count + (hasEmptyKey ? 1 : 0); }

    bool empty() const { return size() == 0; }

    /** Slots allocated (grows by doubling; reserve() presizes). */
    std::size_t capacity() const { return slots.size(); }

    /** @return true if the key was newly inserted. */
    bool
    insert(Key key)
    {
        if (key == kEmpty) {
            const bool fresh = !hasEmptyKey;
            hasEmptyKey = true;
            return fresh;
        }
        if ((count + 1) * 2 > slots.size())
            grow();
        const std::size_t i = probe(key);
        if (slots[i] == key)
            return false;
        slots[i] = key;
        ++count;
        return true;
    }

    bool
    contains(Key key) const
    {
        if (key == kEmpty)
            return hasEmptyKey;
        return count != 0 && slots[probe(key)] == key;
    }

    /** Remove a key; @return true if it was present. */
    bool
    erase(Key key)
    {
        if (key == kEmpty) {
            const bool had = hasEmptyKey;
            hasEmptyKey = false;
            return had;
        }
        if (count == 0)
            return false;
        std::size_t gap = probe(key);
        if (slots[gap] != key)
            return false;

        // Tombstone-free removal, as in FlatMap::erase.
        const std::size_t mask = slots.size() - 1;
        std::size_t j = gap;
        for (;;) {
            j = (j + 1) & mask;
            if (slots[j] == kEmpty)
                break;
            const std::size_t home = slotOf(slots[j]);
            if (((j - home) & mask) >= ((j - gap) & mask)) {
                slots[gap] = slots[j];
                gap = j;
            }
        }
        slots[gap] = kEmpty;
        --count;
        return true;
    }

    /**
     * Size the table so that `n` entries fit without a rehash.  Never
     * shrinks; existing entries are kept.
     */
    void
    reserve(std::size_t n)
    {
        const std::size_t want = std::bit_ceil(std::max(kMinCapacity, 2 * n));
        if (want > slots.size())
            rehash(want);
    }

    /**
     * reserve(size() + n), put off until an insert first needs to
     * grow the table: a set that may never be filled costs nothing
     * until it is.
     */
    void reserveOnGrowth(std::size_t n) { growTo = size() + n; }

    /** Drop every entry but keep the table's capacity; O(1) when
     *  already empty. */
    void
    clear()
    {
        if (count != 0)
            std::fill(slots.begin(), slots.end(), kEmpty);
        count = 0;
        hasEmptyKey = false;
    }

    /**
     * Longest run of consecutive occupied slots (wrapping): a bound on
     * every probe's length, so tests can pin the slot function's
     * spread.
     */
    std::size_t
    longestRun() const
    {
        if (count == 0)
            return 0;
        // Start just past an empty slot (load <= 1/2 leaves plenty),
        // so a run across the table end is counted whole.
        const std::size_t mask = slots.size() - 1;
        const std::size_t start = static_cast<std::size_t>(
            std::find(slots.begin(), slots.end(), kEmpty) - slots.begin());
        std::size_t run = 0;
        std::size_t longest = 0;
        for (std::size_t k = 1; k <= slots.size(); ++k) {
            run = slots[(start + k) & mask] == kEmpty ? 0 : run + 1;
            longest = std::max(longest, run);
        }
        return longest;
    }

    /** Visit every key in unspecified order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        if (count != 0)
            for (const Key key : slots)
                if (key != kEmpty)
                    fn(key);
        if (hasEmptyKey)
            fn(kEmpty);
    }

  private:
    static constexpr Key kEmpty = std::numeric_limits<Key>::max();
    static constexpr std::size_t kMinCapacity = 16;

    /**
     * Index of the key's slot if present, else of the empty slot
     * where it would be inserted.  Requires a non-empty table and a
     * key other than kEmpty.
     */
    std::size_t
    probe(Key key) const
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = slotOf(key);
        while (slots[i] != key && slots[i] != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    /** Home slot of `key` in the current table. */
    std::size_t slotOf(Key key) const { return hash(key) >> shift; }

    /** Double the table, or take a pending reserveOnGrowth() size. */
    [[gnu::noinline]] void
    grow()
    {
        rehash(std::max({kMinCapacity, slots.size() * 2,
                         std::bit_ceil(2 * growTo)}));
        growTo = 0;
    }

    /** Move every key into a fresh table of `capacity` slots. */
    void
    rehash(std::size_t capacity)
    {
        std::vector<Key> old(capacity, kEmpty);
        old.swap(slots);
        shift = flatSlotShift(capacity);
        const std::size_t mask = slots.size() - 1;
        for (const Key key : old) {
            if (key == kEmpty)
                continue;
            std::size_t i = slotOf(key);
            while (slots[i] != kEmpty)
                i = (i + 1) & mask;
            slots[i] = key;
        }
    }

    std::vector<Key> slots;
    /** A reserveOnGrowth() size not yet allocated. */
    std::size_t growTo = 0;
    /** Live entries in `slots` (the out-of-band kEmpty excluded). */
    std::size_t count = 0;
    /** flatSlotShift(capacity()), refreshed on every rehash. */
    unsigned shift = 64;
    /** Whether the all-ones key itself is a member. */
    bool hasEmptyKey = false;
    [[no_unique_address]] Hash hash{};
};

} // namespace vcache

#endif // VCACHE_UTIL_FLAT_HASH_HH
