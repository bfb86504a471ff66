/**
 * @file
 * Memo-store tests: LRU and collision behaviour in memory, then the
 * crash-safety contract of the journal -- replay, torn-tail healing,
 * build-identity invalidation and compaction.
 */

#include "serve/memo.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

using namespace vcache;
using namespace vcache::serve;

namespace
{

/** Self-deleting temp file path. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }

    ~TempPath() { std::remove(path.c_str()); }

    const std::string path;
};

std::unique_ptr<MemoStore>
mustOpen(const MemoOptions &options)
{
    auto store = MemoStore::open(options);
    EXPECT_TRUE(store.ok())
        << (store.ok() ? "" : store.error().message);
    return store.ok() ? std::move(store.value()) : nullptr;
}

/** Journal line count (header + records). */
std::size_t
lineCount(const std::string &path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

} // namespace

TEST(Memo, HitRequiresMatchingCanonical)
{
    auto store = mustOpen(MemoOptions{});
    ASSERT_TRUE(store);

    EXPECT_FALSE(store->lookup(1, "point-a"));
    store->insert(1, "point-a", "payload-a");
    const auto hit = store->lookup(1, "point-a");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "payload-a");

    // Same 64-bit key, different canonical form: a hash collision
    // must miss (and be counted), never serve the wrong bytes.
    EXPECT_FALSE(store->lookup(1, "point-b"));
    store->insert(1, "point-b", "payload-b");
    EXPECT_EQ(*store->lookup(1, "point-a"), "payload-a");

    const MemoStats stats = store->stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.collisions, 2u); // one lookup, one insert
}

TEST(Memo, LruEvictsTheColdestEntry)
{
    MemoOptions options;
    options.maxEntries = 2;
    options.shards = 1;
    auto store = mustOpen(options);
    ASSERT_TRUE(store);

    store->insert(1, "a", "pa");
    store->insert(2, "b", "pb");
    ASSERT_TRUE(store->lookup(1, "a")); // refresh: now b is coldest
    store->insert(3, "c", "pc");

    EXPECT_TRUE(store->lookup(1, "a"));
    EXPECT_FALSE(store->lookup(2, "b"));
    EXPECT_TRUE(store->lookup(3, "c"));
    EXPECT_EQ(store->stats().evictions, 1u);
    EXPECT_EQ(store->size(), 2u);
}

TEST(Memo, ReinsertRefreshesInsteadOfDuplicating)
{
    MemoOptions options;
    options.maxEntries = 2;
    options.shards = 1;
    auto store = mustOpen(options);
    ASSERT_TRUE(store);

    store->insert(1, "a", "pa");
    store->insert(2, "b", "pb");
    store->insert(1, "a", "pa"); // refresh, not a new entry
    store->insert(3, "c", "pc"); // evicts b, not a

    EXPECT_TRUE(store->lookup(1, "a"));
    EXPECT_FALSE(store->lookup(2, "b"));
    EXPECT_EQ(store->size(), 2u);
}

TEST(Memo, JournalPersistsAcrossReopen)
{
    TempPath journal("memo_persist.vcj");
    MemoOptions options;
    options.journalPath = journal.path;
    options.label = "memo:test";
    {
        auto store = mustOpen(options);
        ASSERT_TRUE(store);
        store->insert(10, "canon-x", "payload-x");
        store->insert(11, "canon-y", "payload-y");
        ASSERT_TRUE(store->flush().ok());
    }
    auto reopened = mustOpen(options);
    ASSERT_TRUE(reopened);
    EXPECT_EQ(reopened->stats().journalLoaded, 2u);
    const auto hit = reopened->lookup(10, "canon-x");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "payload-x");
}

TEST(Memo, TornTailIsHealedOnReopen)
{
    TempPath journal("memo_torn.vcj");
    MemoOptions options;
    options.journalPath = journal.path;
    options.label = "memo:test";
    {
        auto store = mustOpen(options);
        ASSERT_TRUE(store);
        store->insert(10, "canon-x", "payload-x");
        ASSERT_TRUE(store->flush().ok());
    }
    {
        // A kill -9 mid-append leaves a truncated last line.
        std::ofstream out(journal.path, std::ios::app);
        out << "{\"point\":11,\"status\":\"ok\",\"row\":[\"half";
    }
    auto reopened = mustOpen(options);
    ASSERT_TRUE(reopened);
    EXPECT_EQ(reopened->stats().journalLoaded, 1u);
    EXPECT_TRUE(reopened->lookup(10, "canon-x"));

    // The healed journal must accept new appends and survive another
    // reopen: the torn tail is gone for good.
    reopened->insert(12, "canon-z", "payload-z");
    ASSERT_TRUE(reopened->flush().ok());
    reopened.reset();
    auto again = mustOpen(options);
    ASSERT_TRUE(again);
    EXPECT_EQ(again->stats().journalLoaded, 2u);
    EXPECT_TRUE(again->lookup(12, "canon-z"));
}

TEST(Memo, ForeignIdentityJournalStartsCold)
{
    TempPath journal("memo_identity.vcj");
    MemoOptions options;
    options.journalPath = journal.path;
    options.label = "memo:build-a";
    {
        auto store = mustOpen(options);
        ASSERT_TRUE(store);
        store->insert(10, "canon-x", "payload-x");
        ASSERT_TRUE(store->flush().ok());
    }
    // A different build may produce different results: its memo must
    // not replay ours.
    options.label = "memo:build-b";
    auto reopened = mustOpen(options);
    ASSERT_TRUE(reopened);
    EXPECT_EQ(reopened->size(), 0u);
    EXPECT_EQ(reopened->stats().journalLoaded, 0u);
    EXPECT_EQ(reopened->stats().journalInvalidated, 1u);
    EXPECT_FALSE(reopened->lookup(10, "canon-x"));
}

TEST(Memo, GarbageJournalStartsColdInsteadOfFailing)
{
    TempPath journal("memo_garbage.vcj");
    {
        std::ofstream out(journal.path);
        out << "this has never been a checkpoint journal\n";
    }
    MemoOptions options;
    options.journalPath = journal.path;
    options.label = "memo:test";
    auto store = mustOpen(options);
    ASSERT_TRUE(store);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_EQ(store->stats().journalInvalidated, 1u);
    // And it is usable: inserts persist through the rewritten file.
    store->insert(1, "a", "pa");
    ASSERT_TRUE(store->flush().ok());
    store.reset();
    auto reopened = mustOpen(options);
    ASSERT_TRUE(reopened);
    EXPECT_TRUE(reopened->lookup(1, "a"));
}

TEST(Memo, JournalWrittenBeforeUtilJsonStillLoads)
{
    // Written by the earlier hand-rolled journal writer with a fixed
    // label (the default label embeds the build identity).  Replay
    // works on a copy: opening heals and appends in place.
    TempPath journal("memo_fixture.vcj");
    {
        std::ifstream in(VCACHE_SIM_DATA_DIR "/memo_journal.vcj");
        ASSERT_TRUE(in.good());
        std::ofstream(journal.path) << in.rdbuf();
    }
    MemoOptions options;
    options.journalPath = journal.path;
    options.label = "memo:fixture";
    auto store = mustOpen(options);
    ASSERT_TRUE(store);
    EXPECT_EQ(store->stats().journalLoaded, 4u);
    EXPECT_EQ(store->stats().journalDropped, 0u);
    EXPECT_EQ(store->stats().journalInvalidated, 0u);
    const auto hit = store->lookup(
        104475577617290304ull,
        "vc-eval/1 m=5 tm=16 B=1024 pds=0.2 engine=none");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, R"({"model":{"mm":4.359110383064516,)"
                    R"("direct":2.2968422290264128,)"
                    R"("prime":1.7969197497358547}})");
}

TEST(Memo, CompactionDropsDeadRecords)
{
    TempPath journal("memo_compact.vcj");
    MemoOptions options;
    options.journalPath = journal.path;
    options.label = "memo:test";
    options.maxEntries = 4;
    options.shards = 1;
    options.compactionSlack = 2;
    auto store = mustOpen(options);
    ASSERT_TRUE(store);

    // Many more inserts than capacity: most records die by eviction,
    // so the journal must eventually compact down to the live set.
    for (std::uint64_t i = 0; i < 64; ++i)
        store->insert(i, "c" + std::to_string(i),
                      "p" + std::to_string(i));
    ASSERT_TRUE(store->flush().ok());
    EXPECT_GE(store->stats().compactions, 1u);
    // Header plus at most slack * capacity records.
    EXPECT_LE(lineCount(journal.path),
              1 + options.compactionSlack * options.maxEntries);

    store.reset();
    auto reopened = mustOpen(options);
    ASSERT_TRUE(reopened);
    EXPECT_LE(reopened->size(), options.maxEntries);
    // The most recent insert survived compaction and replay.
    EXPECT_TRUE(reopened->lookup(63, "c63"));
}

TEST(Memo, InMemoryOnlyWhenNoJournalPath)
{
    auto store = mustOpen(MemoOptions{});
    ASSERT_TRUE(store);
    store->insert(1, "a", "pa");
    EXPECT_TRUE(store->flush().ok());
    EXPECT_EQ(store->stats().journalLoaded, 0u);
}
