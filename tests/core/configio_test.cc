/** Tests for typed experiment configuration. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/configio.hh"
#include "core/defaults.hh"

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

TEST(ConfigIo, MachineDefaultsArePaperValues)
{
    const auto c = parseText("");
    const auto m = machineFromConfig(c);
    const auto d = paperMachineM64();
    EXPECT_EQ(m.mvl, d.mvl);
    EXPECT_EQ(m.bankBits, d.bankBits);
    EXPECT_EQ(m.cacheIndexBits, d.cacheIndexBits);
}

TEST(ConfigIo, MachineOverrides)
{
    const auto c = parseText(
        "[machine]\n"
        "mvl = 128\n"
        "bank_bits = 5\n"
        "memory_time = 8\n"
        "cache_bits = 7\n"
        "startup_base = 10\n");
    const auto m = machineFromConfig(c);
    EXPECT_EQ(m.mvl, 128u);
    EXPECT_EQ(m.banks(), 32u);
    EXPECT_EQ(m.memoryTime, 8u);
    EXPECT_EQ(m.cacheIndexBits, 7u);
    EXPECT_DOUBLE_EQ(m.startupBase, 10.0);
    EXPECT_DOUBLE_EQ(m.startupTime(), 18.0);
}

TEST(ConfigIo, BankMapping)
{
    EXPECT_EQ(machineFromConfig(parseText("")).bankMapping,
              BankMapping::LowOrder);
    EXPECT_EQ(machineFromConfig(
                  parseText("[machine]\nbank_mapping = prime\n"))
                  .bankMapping,
              BankMapping::PrimeModulo);
    EXPECT_EQ(machineFromConfig(
                  parseText("[machine]\nbank_mapping = skewed\n"))
                  .bankMapping,
              BankMapping::Skewed);
}

TEST(ConfigIoDeathTest, BadBankMapping)
{
    EXPECT_EXIT(
        (void)machineFromConfig(
            parseText("[machine]\nbank_mapping = diagonal\n")),
        testing::ExitedWithCode(1), "bank_mapping");
}

TEST(ConfigIoDeathTest, ZeroMvl)
{
    EXPECT_EXIT((void)machineFromConfig(parseText("[machine]\nmvl = 0\n")),
                testing::ExitedWithCode(1), "machine.mvl");
}

TEST(ConfigIoDeathTest, NegativeStartupBase)
{
    EXPECT_EXIT((void)machineFromConfig(
                    parseText("[machine]\nstartup_base = -100\n")),
                testing::ExitedWithCode(1), "machine.startup_base");
}

TEST(ConfigIoDeathTest, NonFiniteStartupBase)
{
    for (const char *text : {"[machine]\nstartup_base = nan\n",
                             "[machine]\nstartup_base = inf\n"})
        EXPECT_EXIT((void)machineFromConfig(parseText(text)),
                    testing::ExitedWithCode(1), "machine.startup_base")
            << text;
}

TEST(ConfigIo, CacheSection)
{
    const auto c = parseText(
        "[cache]\n"
        "organization = assoc\n"
        "ways = 8\n"
        "replacement = fifo\n"
        "bits = 10\n"
        "line_words_log2 = 2\n");
    const auto cache = cacheFromConfig(c);
    EXPECT_EQ(cache.organization, Organization::SetAssociative);
    EXPECT_EQ(cache.associativity, 8u);
    EXPECT_EQ(cache.replacement, ReplacementKind::Fifo);
    EXPECT_EQ(cache.indexBits, 10u);
    EXPECT_EQ(cache.offsetBits, 2u);
}

TEST(ConfigIo, CacheBitsFallsBackToMachineCacheBits)
{
    const auto c = parseText("[machine]\ncache_bits = 7\n");
    EXPECT_EQ(cacheFromConfig(c).indexBits, 7u);
}

TEST(ConfigIo, WorkloadSection)
{
    const auto c = parseText(
        "[workload]\n"
        "blocking_factor = 512\n"
        "reuse_factor = 8\n"
        "p_double_stream = 0.5\n"
        "p_stride1 = 0.1\n"
        "total_data = 4096\n");
    const auto w = workloadFromConfig(c);
    EXPECT_DOUBLE_EQ(w.blockingFactor, 512.0);
    EXPECT_DOUBLE_EQ(w.reuseFactor, 8.0);
    EXPECT_DOUBLE_EQ(w.pDoubleStream, 0.5);
    EXPECT_DOUBLE_EQ(w.pStride1First, 0.1);
    EXPECT_DOUBLE_EQ(w.pStride1Second, 0.1); // follows p_stride1
    EXPECT_DOUBLE_EQ(w.totalData, 4096.0);
}

TEST(ConfigIo, ParseNames)
{
    EXPECT_EQ(parseOrganization("direct"), Organization::DirectMapped);
    EXPECT_EQ(parseOrganization("prime"), Organization::PrimeMapped);
    EXPECT_EQ(parseOrganization("prime-assoc"),
              Organization::PrimeSetAssociative);
    EXPECT_EQ(parseReplacement("random"), ReplacementKind::Random);
}

TEST(ConfigIoDeathTest, UnknownNames)
{
    EXPECT_EXIT((void)parseOrganization("hash"),
                testing::ExitedWithCode(1), "unknown cache");
    EXPECT_EXIT((void)parseReplacement("plru"),
                testing::ExitedWithCode(1), "unknown replacement");
}

} // namespace
} // namespace vcache
