/** Tests for the JSON-lines sweep checkpoint journal. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"

namespace vcache
{
namespace
{

/** Temp journal path removed on scope exit. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : p(std::string(::testing::TempDir()) + name)
    {
        std::remove(p.c_str());
    }

    ~TempPath() { std::remove(p.c_str()); }

    const std::string &str() const { return p; }

  private:
    std::string p;
};

CheckpointHeader
header()
{
    CheckpointHeader h;
    h.label = "grid";
    h.points = 10;
    h.seed = 7;
    return h;
}

TEST(Checkpoint, RoundTripsDoneAndFailedRecords)
{
    TempPath path("ckpt_roundtrip.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok()) << writer.error().describe();
        ASSERT_TRUE(
            writer.value()->recordDone(3, {"a", "1.5", ""}).ok());
        ASSERT_TRUE(writer.value()
                        ->recordFailed(
                            5, makeError(Errc::Timeout, "too slow"), 3)
                        .ok());
        ASSERT_TRUE(writer.value()->flush().ok());
    }

    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().header.label, "grid");
    EXPECT_EQ(replay.value().header.points, 10u);
    EXPECT_EQ(replay.value().header.seed, 7u);
    ASSERT_EQ(replay.value().done.size(), 1u);
    const auto &row = replay.value().done.at(3);
    EXPECT_EQ(row, (std::vector<std::string>{"a", "1.5", ""}));
    EXPECT_EQ(replay.value().failed,
              (std::set<std::uint64_t>{5}));
}

TEST(Checkpoint, EscapesQuotesBackslashesAndControlCharacters)
{
    TempPath path("ckpt_escape.jsonl");
    const std::vector<std::string> nasty{"say \"hi\"", "a\\b",
                                         "line\nbreak", "tab\there",
                                         std::string(1, '\x01')};
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(0, nasty).ok());
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().done.at(0), nasty);
}

TEST(Checkpoint, LastRecordForAPointWins)
{
    TempPath path("ckpt_lastwins.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()
                        ->recordFailed(
                            2, makeError(Errc::Io, "flaky"), 1)
                        .ok());
        // The point succeeded after a resume: the later "ok" record
        // must shadow the earlier failure.
        ASSERT_TRUE(writer.value()->recordDone(2, {"fine"}).ok());
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(replay.value().failed.empty());
    EXPECT_EQ(replay.value().done.at(2),
              (std::vector<std::string>{"fine"}));
}

TEST(Checkpoint, CountsDuplicatePointRecords)
{
    TempPath path("ckpt_dups.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(1, {"a"}).ok());
        ASSERT_TRUE(writer.value()->recordDone(2, {"b"}).ok());
        // Every re-journalled point counts, whatever the transition:
        // ok -> ok (a crash between append and dedup), failed -> ok
        // (retry succeeded after a resume) and ok -> failed.
        ASSERT_TRUE(writer.value()->recordDone(1, {"a2"}).ok());
        ASSERT_TRUE(writer.value()
                        ->recordFailed(
                            3, makeError(Errc::Io, "flaky"), 1)
                        .ok());
        ASSERT_TRUE(writer.value()->recordDone(3, {"c"}).ok());
        ASSERT_TRUE(writer.value()
                        ->recordFailed(
                            2, makeError(Errc::Timeout, "slow"), 2)
                        .ok());
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().duplicates, 3u);
    // Last-write-wins is unchanged by the counting.
    EXPECT_EQ(replay.value().done.at(1),
              (std::vector<std::string>{"a2"}));
    EXPECT_EQ(replay.value().done.at(3),
              (std::vector<std::string>{"c"}));
    EXPECT_EQ(replay.value().failed,
              (std::set<std::uint64_t>{2}));
}

TEST(Checkpoint, NoDuplicatesInACleanJournal)
{
    TempPath path("ckpt_nodups.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(0, {"a"}).ok());
        ASSERT_TRUE(writer.value()->recordDone(1, {"b"}).ok());
        ASSERT_TRUE(writer.value()
                        ->recordFailed(
                            2, makeError(Errc::Io, "x"), 1)
                        .ok());
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value().duplicates, 0u);
}

TEST(Checkpoint, AppendModePreservesExistingRecords)
{
    TempPath path("ckpt_append.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(1, {"first"}).ok());
    }
    {
        auto writer = CheckpointWriter::open(path.str(), header(), true);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(2, {"second"}).ok());
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value().done.size(), 2u);
}

TEST(Checkpoint, ToleratesTornFinalLine)
{
    TempPath path("ckpt_torn.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(4, {"whole"}).ok());
    }
    // Simulate a process killed mid-write: a record missing its tail.
    {
        std::ofstream out(path.str(), std::ios::app);
        out << "{\"point\":5,\"status\":\"ok\",\"row\":[\"ha";
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().done.size(), 1u);
    EXPECT_TRUE(replay.value().done.count(4));
}

TEST(Checkpoint, AppendAfterTornTailHealsTheJournal)
{
    // Crash -> resume -> crash -> resume: the resume append must not
    // concatenate its first record onto the previous run's torn final
    // line, or the *second* resume sees a corrupt mid-file line.
    TempPath path("ckpt_torn_append.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(1, {"one"}).ok());
    }
    {
        // First crash: SIGKILL mid-write leaves a torn record.
        std::ofstream out(path.str(), std::ios::app);
        out << "{\"point\":2,\"status\":\"ok\",\"row\":[\"tw";
    }
    auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    {
        // First resume appends the re-run point.
        auto writer = CheckpointWriter::open(path.str(), header(), true);
        ASSERT_TRUE(writer.ok()) << writer.error().describe();
        ASSERT_TRUE(writer.value()->recordDone(2, {"two"}).ok());
    }
    {
        // Second crash.
        std::ofstream out(path.str(), std::ios::app);
        out << "{\"point\":3,\"st";
    }
    // The second resume must still parse every completed record.
    replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().done.size(), 2u);
    EXPECT_EQ(replay.value().done.at(1),
              (std::vector<std::string>{"one"}));
    EXPECT_EQ(replay.value().done.at(2),
              (std::vector<std::string>{"two"}));

    // And a further heal-append-read cycle stays clean.
    {
        auto writer = CheckpointWriter::open(path.str(), header(), true);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(3, {"three"}).ok());
    }
    replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().done.size(), 3u);
}

TEST(Checkpoint, RejectsCompleteButCorruptFinalRecord)
{
    // A record that *is* newline-terminated but fails to parse is not
    // a torn tail -- the writer always emits the newline with the
    // record -- so it must be rejected, not silently dropped.
    TempPath path("ckpt_corrupt_final.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(1, {"good"}).ok());
    }
    {
        std::ofstream out(path.str(), std::ios::app);
        out << "{\"point\":2,\"status\":\"ok\",\"row\":[\"x\"}\n";
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::Io);
    EXPECT_NE(replay.error().message.find("line 3"), std::string::npos);
}

TEST(Checkpoint, TornTailAfterBlankLineIsStillTolerated)
{
    // The eof()-based torn-tail test must fire on the line that
    // actually failed to parse, even when earlier blank lines were
    // skipped.
    TempPath path("ckpt_torn_blank.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value()->recordDone(7, {"whole"}).ok());
    }
    {
        std::ofstream out(path.str(), std::ios::app);
        out << "\n{\"point\":8,\"status\":\"ok";
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().done.size(), 1u);
    EXPECT_TRUE(replay.value().done.count(7));
}

TEST(Checkpoint, HealReportsTheReadFailuresErrno)
{
    // Opening a directory as a checkpoint makes every read fail with
    // EISDIR; the heal path must report *that* errno, captured before
    // fclose can clobber it.
    auto writer =
        CheckpointWriter::open(::testing::TempDir(), header(), true);
    ASSERT_FALSE(writer.ok());
    EXPECT_EQ(writer.error().code, Errc::Io);
    EXPECT_NE(writer.error().message.find("cannot read checkpoint"),
              std::string::npos);
    EXPECT_NE(writer.error().message.find("Is a directory"),
              std::string::npos);
}

TEST(Checkpoint, RejectsCorruptionBeforeTheFinalLine)
{
    TempPath path("ckpt_corrupt.jsonl");
    {
        auto writer = CheckpointWriter::open(path.str(), header(), false);
        ASSERT_TRUE(writer.ok());
    }
    {
        std::ofstream out(path.str(), std::ios::app);
        out << "garbage in the middle\n";
        out << "{\"point\":1,\"status\":\"ok\",\"row\":[\"x\"]}\n";
    }
    const auto replay = readCheckpoint(path.str());
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::Io);
    EXPECT_NE(replay.error().message.find("line 2"), std::string::npos);
}

TEST(Checkpoint, RejectsMissingOrBadHeader)
{
    TempPath path("ckpt_nohdr.jsonl");
    {
        std::ofstream out(path.str());
        out << "{\"point\":1,\"status\":\"ok\",\"row\":[\"x\"]}\n";
    }
    EXPECT_FALSE(readCheckpoint(path.str()).ok());

    const auto missing = readCheckpoint(
        std::string(::testing::TempDir()) + "ckpt_never_written.jsonl");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, Errc::Io);
}

TEST(Checkpoint, ResumeCompatibilityNamesTheMismatch)
{
    CheckpointReplay replay;
    replay.header = header();

    EXPECT_TRUE(checkResumeCompatible(replay, header()).ok());

    CheckpointHeader other = header();
    other.label = "other";
    auto bad = checkResumeCompatible(replay, other);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, Errc::InvalidConfig);
    EXPECT_NE(bad.error().message.find("label"), std::string::npos);

    other = header();
    other.points = 11;
    bad = checkResumeCompatible(replay, other);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error().message.find("points"), std::string::npos);

    other = header();
    other.seed = 8;
    bad = checkResumeCompatible(replay, other);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error().message.find("seed"), std::string::npos);
}

TEST(Checkpoint, OversizedIntegersAreCorrupt)
{
    TempPath path("ckpt_oversized.jsonl");
    const std::string record = "{\"point\":1,\"status\":\"ok\","
                               "\"row\":[\"x\"]}\n";
    auto write = [&](const std::string &text) {
        std::ofstream(path.str(), std::ios::trunc) << text;
    };

    // 2^64+1 must not wrap to seed 1 and pass a --seed 1 resume.
    write("{\"vcache_checkpoint\":1,\"label\":\"grid\",\"points\":10,"
          "\"seed\":18446744073709551617}\n" +
          record);
    auto replay = readCheckpoint(path.str());
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::Io);
    EXPECT_NE(replay.error().message.find("line 1 is corrupt"),
              std::string::npos)
        << replay.error().message;

    // 2^64+3 must not wrap to point 3.
    const std::string head = "{\"vcache_checkpoint\":1,\"label\":"
                             "\"grid\",\"points\":10,\"seed\":7}\n";
    write(head +
          "{\"point\":18446744073709551619,\"status\":\"ok\","
          "\"row\":[\"x\"]}\n" +
          record);
    replay = readCheckpoint(path.str());
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error().code, Errc::Io);
    EXPECT_NE(replay.error().message.find("line 2 is corrupt"),
              std::string::npos)
        << replay.error().message;

    // A \u escape decodes to the code point's UTF-8 bytes, not to
    // its low byte ("\u0141" is U+0141, not "A").
    write(head + "{\"point\":0,\"status\":\"ok\",\"row\":[\"\\u0141\"]}\n" +
          record);
    replay = readCheckpoint(path.str());
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().done.at(0),
              (std::vector<std::string>{"\xc5\x81"}));
}

TEST(Checkpoint, MemberOrderIsFreeButTheKeySetIsExact)
{
    TempPath path("ckpt_keys.jsonl");
    const std::string head = "{\"seed\":7,\"points\":10,\"label\":"
                             "\"grid\",\"vcache_checkpoint\":1}\n";
    auto lineTwo = [&](const std::string &record) {
        std::ofstream(path.str(), std::ios::trunc)
            << head << record << "\n"
            << "{\"point\":9,\"status\":\"ok\",\"row\":[]}\n";
        return readCheckpoint(path.str());
    };

    auto replay = lineTwo("{\"row\":[\"a\"],\"status\":\"ok\","
                          "\"point\":4}");
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().header.seed, 7u);
    EXPECT_EQ(replay.value().done.at(4),
              (std::vector<std::string>{"a"}));
    EXPECT_TRUE(replay.value().done.at(9).empty());

    replay = lineTwo("{\"error\":\"e\",\"attempts\":2,\"code\":\"Io\","
                     "\"status\":\"failed\",\"point\":4}");
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().failed, (std::set<std::uint64_t>{4}));

    for (const std::string bad :
         {"{\"point\":4,\"status\":\"ok\",\"row\":[\"a\"],\"x\":1}",
          "{\"point\":4,\"status\":\"ok\"}",
          "{\"point\":4,\"status\":\"failed\",\"code\":\"Io\","
          "\"attempts\":1}",
          "{\"point\":4,\"status\":\"ok\",\"row\":\"a\"}",
          "{\"point\":4,\"status\":\"done\",\"row\":[\"a\"]}",
          "{\"point\":-4,\"status\":\"ok\",\"row\":[\"a\"]}"}) {
        replay = lineTwo(bad);
        ASSERT_FALSE(replay.ok()) << bad;
        EXPECT_NE(replay.error().message.find("line 2 is corrupt"),
                  std::string::npos)
            << bad;
    }
}

TEST(Checkpoint, JournalWrittenBeforeUtilJsonStillReplays)
{
    // Written by the earlier hand-rolled journal writer: ok, failed
    // and re-journalled records, rows holding '"', '\\', tab, CR,
    // 0x01 and UTF-8, and a torn final line.
    const auto replay =
        readCheckpoint(VCACHE_SIM_DATA_DIR "/sweep_journal.jsonl");
    ASSERT_TRUE(replay.ok()) << replay.error().describe();
    EXPECT_EQ(replay.value().header.label, "sweep_grid");
    EXPECT_EQ(replay.value().header.points, 8u);
    EXPECT_EQ(replay.value().header.seed, 1u);
    ASSERT_EQ(replay.value().done.size(), 3u);
    EXPECT_EQ(replay.value().done.at(0),
              (std::vector<std::string>{
                  "6", "16", "1024",
                  "q\"b\\t\tc\rx\x01\xc5\x81\xc3\xa9", "0.25"}));
    EXPECT_EQ(replay.value().done.at(1),
              (std::vector<std::string>{"5", "4", "256", "rerun",
                                        "1.5"}));
    EXPECT_EQ(replay.value().done.at(2),
              (std::vector<std::string>{"6", "32", "512", "late",
                                        "3"}));
    EXPECT_EQ(replay.value().failed, (std::set<std::uint64_t>{3, 5}));
    EXPECT_EQ(replay.value().duplicates, 3u);
}

} // namespace
} // namespace vcache
