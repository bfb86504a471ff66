/** Tests for the INI-style configuration parser. */

#include <gtest/gtest.h>

#include <sstream>

#include "util/config.hh"

namespace vcache
{
namespace
{

KeyValueConfig
parseText(const std::string &text)
{
    std::istringstream in(text);
    return KeyValueConfig::parse(in);
}

TEST(KeyValueConfig, SectionsPrefixKeys)
{
    const auto c = parseText(
        "top = 1\n"
        "[machine]\n"
        "mvl = 64\n"
        "memory_time = 32\n"
        "[cache]\n"
        "organization = prime\n");
    EXPECT_TRUE(c.has("top"));
    EXPECT_TRUE(c.has("machine.mvl"));
    EXPECT_TRUE(c.has("cache.organization"));
    EXPECT_FALSE(c.has("mvl"));
    EXPECT_EQ(c.getUint("machine.mvl", 0), 64u);
    EXPECT_EQ(c.getString("cache.organization", "?"), "prime");
}

TEST(KeyValueConfig, CommentsAndWhitespace)
{
    const auto c = parseText(
        "# full-line comment\n"
        "  key  =  spaced value  # trailing comment\n"
        "\n"
        "   \t \n");
    EXPECT_EQ(c.getString("key", "?"), "spaced value");
    EXPECT_EQ(c.keys().size(), 1u);
}

TEST(KeyValueConfig, TypedGettersAndDefaults)
{
    const auto c = parseText(
        "n = 42\n"
        "x = 2.5\n"
        "flag = yes\n"
        "off = false\n");
    EXPECT_EQ(c.getUint("n", 0), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("x", 0.0), 2.5);
    EXPECT_TRUE(c.getBool("flag", false));
    EXPECT_FALSE(c.getBool("off", true));
    EXPECT_EQ(c.getUint("absent", 7), 7u);
    EXPECT_DOUBLE_EQ(c.getDouble("absent", 1.5), 1.5);
    EXPECT_TRUE(c.getBool("absent", true));
}

TEST(KeyValueConfig, UnusedKeyTracking)
{
    const auto c = parseText("used = 1\ntypo = 2\n");
    (void)c.getUint("used", 0);
    const auto unused = c.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "typo");
}

TEST(KeyValueConfigDeathTest, MalformedInput)
{
    EXPECT_EXIT((void)parseText("no equals sign\n"),
                testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT((void)parseText("[unclosed\n"),
                testing::ExitedWithCode(1), "section");
    EXPECT_EXIT((void)parseText("= value\n"),
                testing::ExitedWithCode(1), "empty key");
    EXPECT_EXIT((void)parseText("a = 1\na = 2\n"),
                testing::ExitedWithCode(1), "duplicate");
}

TEST(KeyValueConfigDeathTest, BadTypedValues)
{
    const auto c = parseText("n = -3\nx = abc\nb = maybe\n");
    EXPECT_EXIT((void)c.getUint("n", 0), testing::ExitedWithCode(1),
                "non-negative");
    EXPECT_EXIT((void)c.getDouble("x", 0.0),
                testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT((void)c.getBool("b", false),
                testing::ExitedWithCode(1), "not a boolean");
}

TEST(KeyValueConfigDeathTest, MissingFile)
{
    EXPECT_EXIT((void)KeyValueConfig::parseFile("/nonexistent.ini"),
                testing::ExitedWithCode(1), "cannot open");
}

// ---------------------------------------------------------------------
// Error-as-values: tryParse/tryGet* diagnostics with line numbers.
// ---------------------------------------------------------------------

Expected<KeyValueConfig>
tryParseText(const std::string &text, const std::string &name = "")
{
    std::istringstream in(text);
    return KeyValueConfig::tryParse(in, name);
}

TEST(KeyValueConfigTry, ParseErrorsCarryLineNumbers)
{
    const auto c = tryParseText("good = 1\nno equals sign\n");
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error().code, Errc::InvalidConfig);
    EXPECT_NE(c.error().message.find("line 2"), std::string::npos);
}

TEST(KeyValueConfigTry, DuplicateKeyNamesBothLines)
{
    const auto c = tryParseText("a = 1\nb = 2\na = 3\n");
    ASSERT_FALSE(c.ok());
    EXPECT_NE(c.error().message.find("line 3"), std::string::npos);
    EXPECT_NE(c.error().message.find("first defined at line 1"),
              std::string::npos);
}

TEST(KeyValueConfigTry, DuplicateDetectionSpansSections)
{
    // The same key name in different sections is fine...
    EXPECT_TRUE(tryParseText("[a]\nk = 1\n[b]\nk = 2\n").ok());
    // ...the same full key twice is not.
    EXPECT_FALSE(tryParseText("[a]\nk = 1\n[a]\nk = 2\n").ok());
}

TEST(KeyValueConfigTry, RejectsGarbageAfterSectionHeader)
{
    // Used to be half-accepted: "[sec]extra" silently became section
    // "sec" with the garbage dropped.
    const auto c = tryParseText("[sec]extra\nk = 1\n");
    ASSERT_FALSE(c.ok());
    EXPECT_NE(c.error().message.find("trailing garbage"),
              std::string::npos);
}

TEST(KeyValueConfigTry, RejectsEmptySectionName)
{
    const auto c = tryParseText("[]\nk = 1\n");
    ASSERT_FALSE(c.ok());
    EXPECT_NE(c.error().message.find("empty section"),
              std::string::npos);
}

TEST(KeyValueConfigTry, TypedGetterErrorsNameKeyAndDefinitionLine)
{
    const auto c = tryParseText("\n\nn = -3\n", "exp.ini");
    ASSERT_TRUE(c.ok());
    const auto n = c.value().tryGetUint("n", 0);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error().code, Errc::InvalidConfig);
    EXPECT_NE(n.error().message.find("'n'"), std::string::npos);
    EXPECT_NE(n.error().message.find("line 3"), std::string::npos);
    EXPECT_NE(n.error().message.find("exp.ini"), std::string::npos);

    EXPECT_EQ(c.value().tryGetUint("absent", 9).valueOr(0), 9u);
    EXPECT_EQ(c.value().lineOf("n"), 3u);
    EXPECT_EQ(c.value().lineOf("absent"), 0u);
}

TEST(KeyValueConfigTry, UnsignedValuesTakeNoSign)
{
    const auto c = tryParseText("plus = +7\nok = 7\n");
    ASSERT_TRUE(c.ok());
    EXPECT_FALSE(c.value().tryGetUint("plus", 0).ok());
    EXPECT_EQ(c.value().tryGetUint("ok", 0).valueOr(0), 7u);
}

TEST(KeyValueConfigTry, TryGetDoubleAndBool)
{
    const auto c = tryParseText("x = 2.5\nb = yes\nbad = maybe\n");
    ASSERT_TRUE(c.ok());
    EXPECT_DOUBLE_EQ(c.value().tryGetDouble("x", 0.0).value(), 2.5);
    EXPECT_TRUE(c.value().tryGetBool("b", false).value());
    EXPECT_FALSE(c.value().tryGetBool("bad", false).ok());
}

TEST(KeyValueConfigTry, RejectUnknownListsUntouchedKeysWithLines)
{
    const auto c = tryParseText("used = 1\ntypo = 2\nslip = 3\n");
    ASSERT_TRUE(c.ok());
    (void)c.value().tryGetUint("used", 0);
    const auto verdict = c.value().rejectUnknown();
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.error().message.find("typo"), std::string::npos);
    EXPECT_NE(verdict.error().message.find("slip"), std::string::npos);
    EXPECT_NE(verdict.error().message.find("line 2"),
              std::string::npos);

    (void)c.value().tryGetUint("typo", 0);
    (void)c.value().tryGetUint("slip", 0);
    EXPECT_TRUE(c.value().rejectUnknown().ok());
}

TEST(KeyValueConfigTry, MissingFileIsIoError)
{
    const auto c = KeyValueConfig::tryParseFile("/nonexistent.ini");
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error().code, Errc::Io);
}

} // namespace
} // namespace vcache
