/** Tests for the StatDump adapters. */

#include <gtest/gtest.h>

#include <sstream>

#include "cache/mapped.hh"
#include "core/defaults.hh"
#include "core/reporting.hh"
#include "sim/runner.hh"
#include "trace/multistride.hh"

namespace vcache
{
namespace
{

std::string
render(const StatDump &dump)
{
    std::ostringstream os;
    dump.print(os);
    return os.str();
}

TEST(Reporting, CacheStatsFieldsAppear)
{
    DirectMappedCache cache(AddressLayout(0, 5, 32));
    cache.access(0, AccessType::Write);
    cache.access(0);
    cache.access(32); // evicts dirty line 0: writeback

    StatDump dump;
    StatDump::Group g(dump, "l1");
    appendStats(dump, cache);
    const auto out = render(dump);

    EXPECT_NE(out.find("l1.accesses  "), std::string::npos);
    EXPECT_NE(out.find("l1.writebacks"), std::string::npos);
    EXPECT_NE(out.find("l1.miss_ratio"), std::string::npos);
    EXPECT_NE(out.find("l1.utilization"), std::string::npos);
}

TEST(Reporting, SimResultFields)
{
    MachineParams m = paperMachineM32();
    const auto trace = generateMultistrideTrace(
        MultistrideParams{128, 4, 0.25, 64, 0, 2}, 9);
    const auto r = simulateCc(m, CacheScheme::Prime, trace);

    StatDump dump;
    appendStats(dump, r);
    const auto out = render(dump);
    EXPECT_NE(out.find("cycles_per_result"), std::string::npos);
    EXPECT_NE(out.find("compulsory_misses"), std::string::npos);
}

TEST(Reporting, BreakdownFields)
{
    MissBreakdown b;
    b.compulsory = 3;
    b.conflict = 4;
    StatDump dump;
    appendStats(dump, b);
    const auto out = render(dump);
    EXPECT_NE(out.find("compulsory  "), std::string::npos);
    EXPECT_NE(out.find("conflict"), std::string::npos);
}

TEST(Reporting, PrefetchAndIndexGenFields)
{
    StatDump dump;
    appendStats(dump, PrefetchStats{10, 7, 1});
    appendStats(dump, IndexGenStats{1, 2, 3});
    const auto out = render(dump);
    EXPECT_NE(out.find("accuracy"), std::string::npos);
    EXPECT_NE(out.find("step_adds"), std::string::npos);
}

} // namespace
} // namespace vcache
