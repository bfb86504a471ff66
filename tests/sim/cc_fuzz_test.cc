/**
 * Seeded differential fuzz of the CC walker (sim/cc_walker.hh).
 *
 * The seeded random op streams of fuzz_trace.hh -- every op repeated
 * one to four times, so both memo tiers certify and refuse -- run
 * over the seven differential cache configurations.
 * Every engine is pinned to the reference, the element-wise solo walk
 * (SimEngine::Scalar: no gang probe, no run memo), at the same t_m:
 *
 *   - solo Auto and shared-trace gang lanes at t_m = 1, 16 and 64;
 *   - at t_m = 16, solo Auto with non-blocking misses;
 *   - sampleCc at sampling stride 1: the measured windows' hit,
 *     miss and compulsory-miss counts summing to the exact run's.
 *
 * Fixed seeds and a small cache keep the whole suite to a few seconds
 * in a Debug build, so every build and backend CI ships runs it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache_schemes.hh"
#include "fuzz_trace.hh"
#include "core/defaults.hh"
#include "sim/cc_sim.hh"
#include "sim/gang.hh"
#include "sim/sampling.hh"
#include "trace/source.hh"

namespace vcache
{
namespace
{

/** Index width of the fuzzed caches: 128 lines (127 when prime). */
constexpr unsigned kIndexBits = 7;
static_assert(kFuzzCacheWords == std::int64_t{1} << kIndexBits);

/** The t_m values every engine is pinned at. */
constexpr std::uint64_t kMemoryTimes[] = {1, 16, 64};

MachineParams
machineAt(std::uint64_t memory_time)
{
    MachineParams m = paperMachineM32();
    m.memoryTime = memory_time;
    return m;
}

struct Outcome
{
    SimResult result;
    CacheStats stats;
};

Outcome
runSolo(const MachineParams &m, const CacheConfig &config,
        const Trace &trace, SimEngine engine, bool non_blocking = false)
{
    CcSimulator sim(m, config);
    sim.setEngine(engine);
    sim.setNonBlockingMisses(non_blocking);
    const SimResult r = sim.run(trace);
    return {r, sim.cache().stats()};
}

void
expectSame(const Outcome &got, const Outcome &want,
           const std::string &label)
{
    EXPECT_EQ(got.result.totalCycles, want.result.totalCycles) << label;
    EXPECT_EQ(got.result.stallCycles, want.result.stallCycles) << label;
    EXPECT_EQ(got.result.results, want.result.results) << label;
    EXPECT_EQ(got.result.hits, want.result.hits) << label;
    EXPECT_EQ(got.result.misses, want.result.misses) << label;
    EXPECT_EQ(got.result.compulsoryMisses, want.result.compulsoryMisses)
        << label;
    EXPECT_EQ(got.stats.accesses, want.stats.accesses) << label;
    EXPECT_EQ(got.stats.hits, want.stats.hits) << label;
    EXPECT_EQ(got.stats.misses, want.stats.misses) << label;
    EXPECT_EQ(got.stats.evictions, want.stats.evictions) << label;
    EXPECT_EQ(got.stats.writebacks, want.stats.writebacks) << label;
}

TEST(CcWalkerFuzz, EnginesMatchTheElementWiseWalk)
{
    for (const std::uint64_t seed : kFuzzSeeds) {
        const Trace trace = fuzzTrace(seed);
        for (const auto &[name, config] : allSchemes(kIndexBits)) {
            std::vector<GangLane> lanes;
            for (const std::uint64_t tm : kMemoryTimes)
                lanes.push_back(GangLane{tm, nullptr});
            TraceVectorSource source(trace);
            const auto gang = simulateCcGang(machineAt(16), config,
                                             source, lanes);
            ASSERT_EQ(gang.size(), lanes.size());

            for (std::size_t n = 0; n < lanes.size(); ++n) {
                const std::uint64_t tm = kMemoryTimes[n];
                const MachineParams m = machineAt(tm);
                const std::string label = "seed " +
                                          std::to_string(seed) + " " +
                                          name + " tm " +
                                          std::to_string(tm);
                const Outcome want =
                    runSolo(m, config, trace, SimEngine::Scalar);

                expectSame(runSolo(m, config, trace, SimEngine::Auto),
                           want, label + " auto");
                ASSERT_TRUE(gang[n].ok()) << label;
                // Gang lanes share one cache, so only the results
                // compare; the stats belong to the shared pass.
                expectSame({gang[n].value(), want.stats}, want,
                           label + " gang lane");
                // Non-blocking misses change which events are
                // clock-coupled, not the clock arithmetic, so one t_m
                // covers them.
                if (tm != 16)
                    continue;

                const Outcome nb_want =
                    runSolo(m, config, trace, SimEngine::Scalar, true);
                expectSame(runSolo(m, config, trace, SimEngine::Auto,
                                   true),
                           nb_want, label + " non-blocking auto");
            }
        }
    }
}

TEST(CcWalkerFuzz, SampledWindowsSumToTheExactRun)
{
    for (const std::uint64_t seed : kFuzzSeeds) {
        const Trace trace = fuzzTrace(seed);
        for (const auto &[name, config] : allSchemes(kIndexBits)) {
            const std::string label =
                "seed " + std::to_string(seed) + " " + name;
            SamplingOptions opts;
            opts.unitElements = 400;
            opts.seed = seed;
            // Stride 1: every unit is measured, so the windows'
            // functional counts must add up to the exact run's -- the
            // warmer's live-points (cache state and first-touch lines)
            // leave nothing to chance.
            opts.initialUnits = std::uint64_t{1} << 20;
            const auto sampled =
                sampleCc(machineAt(16), config, trace, opts);
            ASSERT_TRUE(sampled.ok()) << label;

            const SimResult exact =
                runSolo(machineAt(16), config, trace, SimEngine::Scalar)
                    .result;
            const SimResult &got = sampled.value().detailedTotals;
            EXPECT_EQ(sampled.value().unitsMeasured,
                      sampled.value().unitsTotal)
                << label;
            EXPECT_EQ(got.results, exact.results) << label;
            EXPECT_EQ(got.hits, exact.hits) << label;
            EXPECT_EQ(got.misses, exact.misses) << label;
            EXPECT_EQ(got.compulsoryMisses, exact.compulsoryMisses)
                << label;
        }
    }
}

} // namespace
} // namespace vcache
