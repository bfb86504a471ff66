/**
 * Tag-array serialization pins (guards saved live-points).
 *
 * TagArray::appendState is the frame-state codec of every
 * organization, and its blobs must stay byte-identical to those saved
 * journals hold: both the dense and the sparse form are pinned
 * word-for-word against hand-built blobs, every organization
 * round-trips capture -> restore -> capture exactly, and the ~0
 * sentinel-resident edge survives.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/factory.hh"

namespace vcache
{
namespace
{

std::vector<std::uint64_t>
capture(const Cache &cache)
{
    std::vector<std::uint64_t> out;
    cache.captureState(out);
    return out;
}

/**
 * Two resident lines out of 16 frames: 3 + 3*2 = 9 < 2 + 2*16 = 34,
 * so the blob must take the sparse form, ascending frame index.
 */
TEST(TagState, SparseFormPinnedWordForWord)
{
    CacheConfig config;
    config.indexBits = 4;
    auto cache = makeCache(config);
    cache->lookupAndFill(0x23); // frame 0x23 & 15 = 3
    cache->lookupAndFill(0x51); // frame 1
    cache->setLineFlag(0x23, 0x2);

    const std::vector<std::uint64_t> want = {
        1,  // kFrameStateSparse
        16, // frames
        2,  // valid count
        1, 0x51, 0x0, 3, 0x23, 0x2,
    };
    EXPECT_EQ(capture(*cache), want);
}

/**
 * 15 of 16 frames valid: the sparse form would need 3 + 45 words, so
 * the dense form (2 + 32) wins.  Invalid frames serialize line word 0
 * and packed word 0 -- exactly what the old AoS layout's
 * default-constructed frame held.
 */
TEST(TagState, DenseFormPinnedWordForWord)
{
    CacheConfig config;
    config.indexBits = 4;
    auto cache = makeCache(config);
    for (std::uint64_t line = 0; line < 15; ++line)
        cache->lookupAndFill(line);
    cache->setLineFlag(7, 0x4);

    std::vector<std::uint64_t> want = {0, 16};
    for (std::uint64_t line = 0; line < 15; ++line) {
        want.push_back(line);
        want.push_back((line == 7 ? std::uint64_t{0x4} << 1 : 0) | 1);
    }
    want.push_back(0); // frame 15: invalid line serializes as 0
    want.push_back(0);
    EXPECT_EQ(capture(*cache), want);
}

std::vector<std::pair<std::string, CacheConfig>>
allSchemes()
{
    std::vector<std::pair<std::string, CacheConfig>> out;

    CacheConfig direct;
    out.emplace_back("direct", direct);

    CacheConfig prime;
    prime.organization = Organization::PrimeMapped;
    out.emplace_back("prime", prime);

    CacheConfig prime_assoc;
    prime_assoc.organization = Organization::PrimeSetAssociative;
    prime_assoc.associativity = 2;
    out.emplace_back("prime-assoc", prime_assoc);

    CacheConfig set_assoc;
    set_assoc.organization = Organization::SetAssociative;
    set_assoc.associativity = 4;
    out.emplace_back("set-assoc", set_assoc);

    CacheConfig xor_mapped;
    xor_mapped.organization = Organization::XorMapped;
    out.emplace_back("xor", xor_mapped);

    CacheConfig random_assoc;
    random_assoc.organization = Organization::SetAssociative;
    random_assoc.associativity = 4;
    random_assoc.replacement = ReplacementKind::Random;
    out.emplace_back("set-assoc-random", random_assoc);

    CacheConfig wide_lines;
    wide_lines.offsetBits = 2;
    out.emplace_back("direct-4word", wide_lines);

    return out;
}

TEST(TagState, CaptureRestoreCaptureIsExactAcrossSchemes)
{
    for (const auto &[name, config] : allSchemes()) {
        auto cache = makeCache(config);
        const AddressLayout &layout = cache->addressLayout();
        for (std::uint64_t i = 0; i < 5000; ++i)
            cache->lookupAndFill(layout.lineAddress(i * 7));
        cache->setLineFlag(layout.lineAddress(7), 0x2);
        cache->setLineFlag(layout.lineAddress(70), 0x1);

        const std::vector<std::uint64_t> blob = capture(*cache);
        auto fresh = makeCache(config);
        ASSERT_TRUE(fresh->restoreState(blob)) << name;
        EXPECT_EQ(capture(*fresh), blob) << name;

        for (std::uint64_t i = 0; i < 5000; i += 97) {
            const Addr line = layout.lineAddress(i * 7);
            EXPECT_EQ(fresh->containsLine(line),
                      cache->containsLine(line))
                << name << " line " << line;
        }
        EXPECT_EQ(fresh->validLines(), cache->validLines()) << name;
    }
}

/** The resident-~0 sentinel edge must survive a round trip. */
TEST(TagState, SentinelResidentLineRoundTrips)
{
    for (const auto &[name, config] : allSchemes()) {
        auto cache = makeCache(config);
        cache->lookupAndFill(~std::uint64_t{0});
        cache->lookupAndFill(12345);

        const std::vector<std::uint64_t> blob = capture(*cache);
        auto fresh = makeCache(config);
        ASSERT_TRUE(fresh->restoreState(blob)) << name;
        EXPECT_TRUE(fresh->containsLine(~std::uint64_t{0})) << name;
        const std::uint64_t sent[] = {~std::uint64_t{0}};
        EXPECT_EQ(fresh->probeHitMask(sent, 1), 1u) << name;
        EXPECT_EQ(capture(*fresh), blob) << name;
    }
}

TEST(TagState, RestoreRejectsMalformedBlobs)
{
    CacheConfig config;
    config.indexBits = 4;
    auto cache = makeCache(config);
    cache->lookupAndFill(3);
    std::vector<std::uint64_t> blob = capture(*cache);

    auto fresh = makeCache(config);
    // Truncated.
    std::vector<std::uint64_t> cut(blob.begin(), blob.end() - 1);
    EXPECT_FALSE(fresh->restoreState(cut));
    // Unknown discriminator.
    std::vector<std::uint64_t> bad = blob;
    bad[0] = 99;
    EXPECT_FALSE(fresh->restoreState(bad));
    // Sparse index out of range.
    ASSERT_EQ(blob[0], 1u);
    bad = blob;
    bad[3] = 16; // frames == 16, so 16 is one past the end
    EXPECT_FALSE(fresh->restoreState(bad));
    // A failed restore must not have corrupted the good path.
    EXPECT_TRUE(fresh->restoreState(blob));
    EXPECT_TRUE(fresh->containsLine(3));
}

} // namespace
} // namespace vcache
