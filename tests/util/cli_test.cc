/** Tests for the command-line flag parser. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "simd/kernels.hh"
#include "util/buildinfo.hh"
#include "util/cli.hh"

namespace vcache
{
namespace
{

/** Build a mutable argv from string literals. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : storage(std::move(args))
    {
        for (auto &s : storage)
            pointers.push_back(s.data());
    }

    int argc() const { return static_cast<int>(pointers.size()); }
    char **argv() { return pointers.data(); }

  private:
    std::vector<std::string> storage;
    std::vector<char *> pointers;
};

TEST(ArgParser, DefaultsApply)
{
    ArgParser p("test");
    p.addFlag("count", "5", "a count");
    Argv a({"prog"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getInt("count"), 5);
}

TEST(ArgParser, EqualsForm)
{
    ArgParser p("test");
    p.addFlag("count", "5", "a count");
    Argv a({"prog", "--count=9"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getInt("count"), 9);
}

TEST(ArgParser, SpaceForm)
{
    ArgParser p("test");
    p.addFlag("name", "x", "a name");
    Argv a({"prog", "--name", "hello"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getString("name"), "hello");
}

TEST(ArgParser, Types)
{
    ArgParser p("test");
    p.addFlag("i", "-3", "int");
    p.addFlag("u", "7", "uint");
    p.addFlag("d", "2.5", "double");
    p.addFlag("b", "true", "bool");
    Argv a({"prog"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getInt("i"), -3);
    EXPECT_EQ(p.getUint("u"), 7u);
    EXPECT_DOUBLE_EQ(p.getDouble("d"), 2.5);
    EXPECT_TRUE(p.getBool("b"));
}

TEST(ArgParser, WasSetDistinguishesDefaults)
{
    ArgParser p("test");
    p.addFlag("given", "1", "set on the command line");
    p.addFlag("defaulted", "2", "left at its default");
    Argv a({"prog", "--given=5"});
    p.parse(a.argc(), a.argv());
    EXPECT_TRUE(p.wasSet("given"));
    EXPECT_FALSE(p.wasSet("defaulted"));
    EXPECT_EQ(p.getInt("defaulted"), 2);
}

TEST(ArgParser, UsageListsFlags)
{
    ArgParser p("my tool");
    p.addFlag("alpha", "1", "the alpha flag");
    const std::string u = p.usage();
    EXPECT_NE(u.find("my tool"), std::string::npos);
    EXPECT_NE(u.find("--alpha"), std::string::npos);
    EXPECT_NE(u.find("the alpha flag"), std::string::npos);
}

TEST(ArgParserDeathTest, UnknownFlag)
{
    ArgParser p("test");
    p.addFlag("known", "1", "known");
    Argv a({"prog", "--unknown=2"});
    EXPECT_EXIT(p.parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1), "unknown flag");
}

TEST(ArgParserDeathTest, BadInteger)
{
    ArgParser p("test");
    p.addFlag("n", "1", "n");
    Argv a({"prog", "--n=abc"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getInt("n"), testing::ExitedWithCode(1),
                "not an integer");
}

TEST(ArgParserDeathTest, NegativeUint)
{
    ArgParser p("test");
    p.addFlag("n", "1", "n");
    Argv a({"prog", "--n=-4"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getUint("n"), testing::ExitedWithCode(1),
                "non-negative");
}

TEST(ArgParserDeathTest, TrailingGarbageInt)
{
    // std::stoll would have silently parsed "4x" as 4; the whole
    // string must now be numeric.
    ArgParser p("test");
    p.addFlag("jobs", "1", "jobs");
    Argv a({"prog", "--jobs=4x"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getInt("jobs"), testing::ExitedWithCode(1),
                "not an integer");
}

TEST(ArgParserDeathTest, FractionalJobsRejected)
{
    ArgParser p("test");
    p.addFlag("jobs", "1", "jobs");
    Argv a({"prog", "--jobs=4.5"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getUint("jobs"), testing::ExitedWithCode(1),
                "non-negative integer");
}

TEST(ArgParserDeathTest, HexNotSilentlyTruncated)
{
    // "0x10" used to parse as 0; it must be an error.
    ArgParser p("test");
    p.addFlag("n", "1", "n");
    Argv a({"prog", "--n=0x10"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getInt("n"), testing::ExitedWithCode(1),
                "not an integer");
}

TEST(ArgParserDeathTest, IntOverflowIsFatal)
{
    ArgParser p("test");
    p.addFlag("n", "1", "n");
    Argv a({"prog", "--n=9223372036854775808"}); // INT64_MAX + 1
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getInt("n"), testing::ExitedWithCode(1),
                "out of range");
}

TEST(ArgParserDeathTest, UintOverflowIsFatal)
{
    ArgParser p("test");
    p.addFlag("n", "1", "n");
    Argv a({"prog", "--n=18446744073709551616"}); // UINT64_MAX + 1
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getUint("n"), testing::ExitedWithCode(1),
                "out of range");
}

TEST(ArgParserDeathTest, TrailingGarbageDouble)
{
    ArgParser p("test");
    p.addFlag("d", "1.0", "d");
    Argv a({"prog", "--d=2.5abc"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getDouble("d"), testing::ExitedWithCode(1),
                "not a number");
}

TEST(ArgParser, ExtremeButValidValuesParse)
{
    ArgParser p("test");
    p.addFlag("lo", "0", "lo");
    p.addFlag("hi", "0", "hi");
    p.addFlag("uhi", "0", "uhi");
    Argv a({"prog", "--lo=-9223372036854775808",
            "--hi=9223372036854775807",
            "--uhi=18446744073709551615"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getInt("lo"), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(p.getInt("hi"), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(p.getUint("uhi"),
              std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------
// Error-as-values: tryParse/tryGet* for embedding in the sweep's
// recoverable paths.
// ---------------------------------------------------------------------

TEST(ArgParserTry, UnknownFlagIsAValueError)
{
    ArgParser p("test");
    p.addFlag("known", "1", "known");
    Argv a({"prog", "--unknown=2"});
    const auto parsed = p.tryParse(a.argc(), a.argv());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, Errc::InvalidConfig);
    EXPECT_NE(parsed.error().message.find("unknown"),
              std::string::npos);
}

TEST(ArgParserTry, MissingValueIsAValueError)
{
    ArgParser p("test");
    p.addFlag("n", "1", "n");
    Argv a({"prog", "--n"});
    EXPECT_FALSE(p.tryParse(a.argc(), a.argv()).ok());
}

TEST(ArgParserTry, SuccessfulParseReadsTypedValues)
{
    ArgParser p("test");
    p.addFlag("n", "1", "n");
    p.addFlag("x", "0.5", "x");
    p.addFlag("b", "false", "b");
    Argv a({"prog", "--n=42", "--x=2.5", "--b=true"});
    ASSERT_TRUE(p.tryParse(a.argc(), a.argv()).ok());
    EXPECT_EQ(p.tryGetInt("n").value(), 42);
    EXPECT_EQ(p.tryGetUint("n").value(), 42u);
    EXPECT_DOUBLE_EQ(p.tryGetDouble("x").value(), 2.5);
    EXPECT_TRUE(p.tryGetBool("b").value());
}

TEST(ArgParserTry, BadTypedValuesAreValueErrors)
{
    ArgParser p("test");
    p.addFlag("n", "0", "n");
    p.addFlag("x", "0", "x");
    p.addFlag("b", "false", "b");
    Argv a({"prog", "--n=12abc", "--x=nanx", "--b=maybe"});
    ASSERT_TRUE(p.tryParse(a.argc(), a.argv()).ok());

    const auto n = p.tryGetInt("n");
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error().code, Errc::InvalidConfig);
    EXPECT_NE(n.error().message.find("--n"), std::string::npos);
    EXPECT_FALSE(p.tryGetDouble("x").ok());
    EXPECT_FALSE(p.tryGetBool("b").ok());
}

TEST(ArgParserTry, NegativeValueForUintIsAValueError)
{
    ArgParser p("test");
    p.addFlag("n", "0", "n");
    Argv a({"prog", "--n=-3"});
    ASSERT_TRUE(p.tryParse(a.argc(), a.argv()).ok());
    EXPECT_FALSE(p.tryGetUint("n").ok());
    EXPECT_EQ(p.tryGetInt("n").value(), -3);
}

TEST(BuildInfo, IdentityFieldsAreNonEmpty)
{
    EXPECT_STRNE(buildGitHash(), "");
    EXPECT_STRNE(buildTypeName(), "");
    const std::string info = buildInfoString();
    EXPECT_NE(info.find("vcache "), std::string::npos);
    EXPECT_NE(info.find(buildGitHash()), std::string::npos);
    EXPECT_NE(info.find(buildTypeName()), std::string::npos);
    EXPECT_NE(info.find("simd="), std::string::npos);
}

TEST(BuildInfo, CompilerAndFlagsAreStamped)
{
    const std::string compiler = buildCompiler();
    EXPECT_NE(compiler.find_first_of("0123456789"), std::string::npos)
        << compiler;
    // Every target compiles with the project's warning options, so
    // the effective flags are never empty.
    EXPECT_NE(std::string(buildCxxFlags()).find("-Wall"),
              std::string::npos)
        << buildCxxFlags();
}

TEST(BuildInfo, ResultIdentityExcludesSimdBackend)
{
    // The memo-store label must not depend on the dispatched backend
    // (results are pinned bit-identical across backends), only on
    // what can change them: the code and the build type.
    const std::string id = buildResultIdentity();
    EXPECT_EQ(id, std::string(buildGitHash()) + ":" + buildTypeName());
    EXPECT_EQ(id.find("simd"), std::string::npos);
}

TEST(BuildInfo, SimdProviderIsRegisteredByDispatcher)
{
    // Referencing the dispatcher (as every simulator-carrying tool
    // does) pulls its TU into the binary, whose static init registers
    // the provider; the reported backend must then be the dispatched
    // one, never the "unknown" fallback.
    EXPECT_STREQ(buildInfoSimdBackend(),
                 simd::backendName(simd::activeBackend()));
    const std::string backend = buildInfoSimdBackend();
    EXPECT_TRUE(backend == "scalar" || backend == "avx2" ||
                backend == "neon")
        << backend;
}

TEST(ArgParserDeathTest, VersionPrintsBuildInfoAndExits)
{
    ArgParser p("test");
    Argv a({"prog", "--version"});
    EXPECT_EXIT(p.parse(a.argc(), a.argv()),
                testing::ExitedWithCode(0), "");
}

TEST(ArgParser, UsageMentionsVersion)
{
    ArgParser p("test");
    EXPECT_NE(p.usage().find("--version"), std::string::npos);
}

} // namespace
} // namespace vcache
