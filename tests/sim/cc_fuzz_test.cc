/**
 * Seeded differential fuzz of the CC walker (sim/cc_walker.hh).
 *
 * Random op streams -- single and double streams, second streams
 * shorter (and sometimes longer) than the first, every op repeated
 * one to four times so both memo tiers certify and refuse, strides
 * that are powers of two, multiples of the cache size, odd, zero and
 * negative -- run over the seven differential cache configurations.
 * Every engine is pinned to the reference, the element-wise solo walk
 * (SimEngine::Scalar) with the gang probe off, at the same t_m:
 *
 *   - solo Auto and shared-trace gang lanes at t_m = 1, 16 and 64;
 *   - at t_m = 16, solo Auto and Scalar with the gang probe on and
 *     off, runVirtual (the generic virtual-dispatch walk) and
 *     non-blocking misses;
 *   - sampleCc at sampling stride 1: estimates bit-identical with
 *     gangWarm on and off, and the measured windows' hit, miss and
 *     compulsory-miss counts summing to the exact run's.
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
#include "core/defaults.hh"
#include "sim/cc_sim.hh"
#include "sim/gang.hh"
#include "sim/sampling.hh"
#include "trace/source.hh"
#include "util/rng.hh"

namespace vcache
{
namespace
{

/** Index width of the fuzzed caches: 128 lines (127 when prime). */
constexpr unsigned kIndexBits = 7;
constexpr std::int64_t kCacheWords = std::int64_t{1} << kIndexBits;

/** The t_m values every engine is pinned at. */
constexpr std::uint64_t kMemoryTimes[] = {1, 16, 64};

std::int64_t
randomStride(Rng &rng)
{
    std::int64_t s = 0;
    switch (rng.next() % 4) {
      case 0:
        s = std::int64_t{1} << (rng.next() % 9); // 1 .. 256
        break;
      case 1:
        s = kCacheWords * static_cast<std::int64_t>(1 + rng.next() % 3);
        break;
      case 2:
        s = static_cast<std::int64_t>(rng.next() % 40); // 0 and odd
        break;
      default:
        s = static_cast<std::int64_t>(1 + rng.next() % 200);
        break;
    }
    return rng.bernoulli(0.3) ? -s : s;
}

VectorRef
randomRef(Rng &rng, std::uint64_t length)
{
    VectorRef ref;
    ref.stride = randomStride(rng);
    // A few shared bases make ops collide and reuse lines; all sit
    // high enough that negative strides never wrap below zero.
    static constexpr Addr kBases[] = {1 << 20, (1 << 20) + 64,
                                      (1 << 20) + 4096, 3 << 20};
    ref.base = kBases[rng.next() % 4] + rng.next() % 256;
    ref.length = length;
    return ref;
}

/** One seeded op stream (see the file comment). */
Trace
fuzzTrace(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace;
    const std::uint64_t ops = 24 + rng.next() % 16;
    for (std::uint64_t n = 0; n < ops; ++n) {
        // Lengths straddle the 64-element strip edges.
        static constexpr std::uint64_t kLengths[] = {1,  7,   63,  64,
                                                     65, 128, 200, 300};
        VectorOp op;
        op.first = randomRef(rng, kLengths[rng.next() % 8]);
        if (rng.bernoulli(0.4)) {
            const std::uint64_t len = op.first.length;
            const std::uint64_t second =
                rng.bernoulli(0.2) ? len + 17
                                   : 1 + rng.next() % len; // shorter
            op.second = randomRef(rng, second);
        }
        if (rng.bernoulli(0.3))
            op.store = randomRef(rng, op.first.length);
        const std::uint64_t repeats = 1 + rng.next() % 4;
        for (std::uint64_t r = 0; r < repeats; ++r)
            trace.push_back(op);
    }
    return trace;
}

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
        const Trace &trace, SimEngine engine, bool gang,
        bool non_blocking = false)
{
    CcSimulator sim(m, config);
    sim.setEngine(engine);
    sim.setGangReplay(gang);
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

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

TEST(CcWalkerFuzz, EnginesMatchTheElementWiseWalk)
{
    for (const std::uint64_t seed : kSeeds) {
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
                    runSolo(m, config, trace, SimEngine::Scalar, false);

                expectSame(runSolo(m, config, trace, SimEngine::Auto,
                                   true),
                           want, label + " auto");
                ASSERT_TRUE(gang[n].ok()) << label;
                // Gang lanes share one cache, so only the results
                // compare; the stats belong to the shared pass.
                expectSame({gang[n].value(), want.stats}, want,
                           label + " gang lane");
                // The remaining switches change which code walks an
                // element, never the clock arithmetic, so one t_m
                // covers them.
                if (tm != 16)
                    continue;

                expectSame(runSolo(m, config, trace, SimEngine::Auto,
                                   false),
                           want, label + " auto gang-off");
                expectSame(runSolo(m, config, trace, SimEngine::Scalar,
                                   true),
                           want, label + " scalar gang-on");
                CcSimulator generic(m, config);
                const SimResult virt = generic.runVirtual(trace);
                expectSame({virt, generic.cache().stats()}, want,
                           label + " virtual");
                const Outcome nb_want = runSolo(
                    m, config, trace, SimEngine::Scalar, false, true);
                expectSame(runSolo(m, config, trace, SimEngine::Auto,
                                   true, true),
                           nb_want, label + " non-blocking auto");
            }
        }
    }
}

TEST(CcWalkerFuzz, SampledEstimatesIgnoreGangWarming)
{
    for (const std::uint64_t seed : kSeeds) {
        const Trace trace = fuzzTrace(seed);
        for (const auto &[name, config] : allSchemes(kIndexBits)) {
            const std::string label =
                "seed " + std::to_string(seed) + " " + name;
            SamplingOptions on;
            on.unitElements = 400;
            on.seed = seed;
            // Stride 1: every unit is measured, so the windows'
            // functional counts must add up to the exact run's -- the
            // warmer's live-points (cache state and first-touch lines)
            // leave nothing to chance.
            on.initialUnits = std::uint64_t{1} << 20;
            on.gangWarm = true;
            SamplingOptions off = on;
            off.gangWarm = false;
            const auto a = sampleCc(machineAt(16), config, trace, on);
            const auto b = sampleCc(machineAt(16), config, trace, off);
            ASSERT_TRUE(a.ok()) << label;
            ASSERT_TRUE(b.ok()) << label;
            EXPECT_EQ(a.value().cyclesPerElement,
                      b.value().cyclesPerElement)
                << label;
            EXPECT_EQ(a.value().ciHalfWidth, b.value().ciHalfWidth)
                << label;
            EXPECT_EQ(a.value().unitsMeasured, b.value().unitsMeasured)
                << label;
            EXPECT_EQ(a.value().warmingFraction,
                      b.value().warmingFraction)
                << label;
            expectSame({a.value().detailedTotals, {}},
                       {b.value().detailedTotals, {}}, label);

            const SimResult exact =
                runSolo(machineAt(16), config, trace, SimEngine::Scalar,
                        false)
                    .result;
            const SimResult &got = a.value().detailedTotals;
            EXPECT_EQ(a.value().unitsMeasured, a.value().unitsTotal)
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
