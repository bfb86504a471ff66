/**
 * Tests for the deterministic fault-injection engine.  The decision
 * engine (parse/configure/pollSite) is compiled in every build; only
 * the macro *sites* in the library are gated behind
 * VCACHE_FAULT_INJECTION, so these tests drive pollSite directly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/faultinject.hh"

namespace vcache
{
namespace faults
{
namespace
{

/** RAII plan install so a failing test cannot leak live faults. */
struct ScopedPlan
{
    explicit ScopedPlan(const FaultPlan &plan) { configureFaults(plan); }
    ~ScopedPlan() { clearFaults(); }
};

TEST(FaultSpec, ParsesEveryRule)
{
    const auto plan =
        parseFaultSpec("trace.loader.read=throw@every:7", 1);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan.value().rules.size(), 1u);
    const Rule &rule = plan.value().rules.at("trace.loader.read");
    EXPECT_EQ(rule.action, Action::Throw);
    EXPECT_EQ(rule.every, 7u);
    EXPECT_LT(rule.probability, 0.0);
}

TEST(FaultSpec, ParsesStallAndProbability)
{
    const auto plan =
        parseFaultSpec("memory.bank.issue=stall:50@prob:0.25", 9);
    ASSERT_TRUE(plan.ok());
    const Rule &rule = plan.value().rules.at("memory.bank.issue");
    EXPECT_EQ(rule.action, Action::Stall);
    EXPECT_EQ(rule.stallMillis, 50u);
    EXPECT_DOUBLE_EQ(rule.probability, 0.25);
    EXPECT_EQ(plan.value().seed, 9u);
}

TEST(FaultSpec, ParsesMultipleSemicolonSeparatedRules)
{
    const auto plan = parseFaultSpec(
        "a=throw@every:2;b=corrupt@prob:0.5;c=stall:10@every:3", 1);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan.value().rules.size(), 3u);
    EXPECT_EQ(plan.value().rules.at("b").action, Action::Corrupt);
}

TEST(FaultSpec, EmptySpecIsAnEmptyPlan)
{
    const auto plan = parseFaultSpec("", 1);
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan.value().empty());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    // Each spec is wrong in a different clause of the grammar.
    const std::vector<std::string> bad{
        "noequals",
        "site=@every:2",
        "site=throw",
        "site=throw@",
        "site=throw@sometimes",
        "site=throw@every:0",
        "site=throw@every:x",
        "site=throw@prob:1.5",
        "site=throw@prob:-0.5",
        "site=stall@every:2",
        "site=stall:x@every:2",
        // Unsigned fields take no sign and no leading space: a
        // negated stall used to wrap to an effectively endless sleep.
        "site=stall:-5@every:1",
        "site=stall: 7@every:1",
        "site=stall:+7@every:1",
        "site=throw@every:-1",
        "site=throw@every: 7",
        "site=throw@every:+7",
        "site=explode@every:2",
        "=throw@every:2",
    };
    for (const auto &spec : bad) {
        const auto plan = parseFaultSpec(spec, 1);
        EXPECT_FALSE(plan.ok()) << "accepted: " << spec;
        if (!plan.ok()) {
            EXPECT_EQ(plan.error().code, Errc::InvalidConfig) << spec;
        }
    }
}

TEST(FaultEngine, DormantWithoutPlan)
{
    clearFaults();
    EXPECT_FALSE(faultsConfigured());
    EXPECT_FALSE(activeCheap());
    EXPECT_EQ(pollSite("anything"), Fire::None);
}

TEST(FaultEngine, EveryNFiresOnExactSchedule)
{
    auto plan = parseFaultSpec("site.a=throw@every:3", 1);
    ASSERT_TRUE(plan.ok());
    ScopedPlan installed(plan.value());
    EXPECT_TRUE(faultsConfigured());
    EXPECT_TRUE(activeCheap());

    std::vector<Fire> fires;
    for (int i = 0; i < 9; ++i)
        fires.push_back(pollSite("site.a"));
    const std::vector<Fire> want{
        Fire::None, Fire::None, Fire::Throw, Fire::None, Fire::None,
        Fire::Throw, Fire::None, Fire::None, Fire::Throw};
    EXPECT_EQ(fires, want);
    EXPECT_EQ(faultSiteHits("site.a"), 9u);
    EXPECT_EQ(faultSiteFires("site.a"), 3u);
    // Unarmed sites pass through untouched but are not counted.
    EXPECT_EQ(pollSite("site.unarmed"), Fire::None);
}

TEST(FaultEngine, ProbabilityScheduleIsDeterministicPerSeed)
{
    const auto schedule = [](std::uint64_t seed) {
        auto plan = parseFaultSpec("site.p=corrupt@prob:0.5", seed);
        EXPECT_TRUE(plan.ok());
        ScopedPlan installed(plan.value());
        std::vector<Fire> fires;
        for (int i = 0; i < 64; ++i)
            fires.push_back(pollSite("site.p"));
        return fires;
    };

    const auto a = schedule(42);
    EXPECT_EQ(a, schedule(42)) << "same seed, same schedule";
    EXPECT_NE(a, schedule(43)) << "different seed, different schedule";

    int fired = 0;
    for (const Fire f : a)
        fired += f == Fire::Corrupt;
    // Loose sanity bounds: p=0.5 over 64 draws.
    EXPECT_GT(fired, 8);
    EXPECT_LT(fired, 56);
}

TEST(FaultEngine, ReinstallResetsCounters)
{
    auto plan = parseFaultSpec("site.r=throw@every:2", 1);
    ASSERT_TRUE(plan.ok());
    {
        ScopedPlan installed(plan.value());
        (void)pollSite("site.r");
        (void)pollSite("site.r");
        EXPECT_EQ(faultSiteHits("site.r"), 2u);
    }
    EXPECT_EQ(faultSiteHits("site.r"), 0u);
    {
        ScopedPlan installed(plan.value());
        EXPECT_EQ(pollSite("site.r"), Fire::None) << "hit 1 of 2";
    }
}

TEST(FaultEngine, ThrowInjectedCarriesSiteName)
{
    try {
        throwInjected("trace.loader.read");
        FAIL() << "should have thrown";
    } catch (const VcError &e) {
        EXPECT_EQ(e.error().code, Errc::Io);
        EXPECT_NE(e.error().message.find("trace.loader.read"),
                  std::string::npos);
    }
}

TEST(FaultEngine, CorruptValueIsAnInvolution)
{
    const std::uint64_t v = 0x0123456789abcdefull;
    EXPECT_NE(corruptValue(v), v);
    EXPECT_EQ(corruptValue(corruptValue(v)), v);
}

} // namespace
} // namespace faults
} // namespace vcache
