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
 * The walker's path counters (CcPathCounts) show that the fast paths
 * really fire: on the fuzz streams, on targeted cases where each
 * condition of the cold pass or the exact-mask gang is broken in
 * turn, on a restored state with a flagged frame, and on one VCM
 * paper point.
 *
 * Fixed seeds and a small cache keep the whole suite to a few seconds
 * in a Debug build, so every build and backend CI ships runs it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cache_schemes.hh"
#include "fuzz_trace.hh"
#include "core/defaults.hh"
#include "cache/factory.hh"
#include "sim/cc_sim.hh"
#include "sim/gang.hh"
#include "sim/sampling.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

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
    CcPathCounts fired;
    for (const std::uint64_t seed : kFuzzSeeds) {
        const Trace trace = fuzzTrace(seed);
        for (const auto &[name, config] : allSchemes(kIndexBits)) {
            std::vector<GangLane> lanes;
            for (const std::uint64_t tm : kMemoryTimes)
                lanes.push_back(GangLane{tm, nullptr});
            TraceVectorSource source(trace);
            CcPathCounts paths;
            const auto gang = simulateCcGang(machineAt(16), config,
                                             source, lanes, &paths);
            ASSERT_EQ(gang.size(), lanes.size());
            EXPECT_EQ(paths.ops(), trace.size());
            fired.add(paths);

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
    // Not vacuous: the streams reach every fast path.
    EXPECT_GT(fired.coldOps, 0u);
    EXPECT_GT(fired.coldTails, 0u);
    EXPECT_GT(fired.exactMaskGangs, 0u);
    EXPECT_GT(fired.canonicalOps, 0u);
    EXPECT_GT(fired.closedTails, 0u);
    EXPECT_GT(fired.memoOps, 0u);
    EXPECT_GT(fired.classifiedOps, 0u);
    EXPECT_GT(fired.hashedLines, 0u);
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

TEST(FirstTouchSet, RunRecordsHoldExactlyTheirLines)
{
    Rng rng(7);
    for (int trial = 0; trial < 40; ++trial) {
        FirstTouchSet set;
        std::set<Addr> model;
        constexpr Addr kStart = 1000;
        Addr frontier = kStart;
        // More runs than the set keeps records for, so the oldest are
        // hashed line by line; odd, even and power-of-two steps.
        for (std::size_t r = 0; r < FirstTouchSet::kMaxRuns + 4; ++r) {
            const std::uint64_t step = 1 + rng.next() % 48;
            const std::uint64_t count = 1 + rng.next() % 40;
            const std::uint64_t span = step * (count - 1);
            ASSERT_TRUE(set.disjoint(frontier, frontier + span));
            set.insertRun(frontier, step, count);
            for (std::uint64_t i = 0; i < count; ++i)
                model.insert(frontier + step * i);
            EXPECT_FALSE(set.disjoint(frontier, frontier)) << trial;
            frontier += span + 1 + rng.next() % 8;
        }
        EXPECT_LE(set.records().size(), FirstTouchSet::kMaxRuns);
        EXPECT_GT(set.hashedLines(), 0u) << trial;
        // insert() reports a line new exactly when the model lacks it.
        for (Addr a = kStart - 8; a < frontier + 8; ++a)
            ASSERT_EQ(set.insert(a), model.insert(a).second)
                << "trial " << trial << " line " << a;
    }
}

/** First-stream reads in strips past each op's second stream. */
std::uint64_t
singleStreamStripReads(const Trace &trace, std::uint64_t mvl)
{
    std::uint64_t reads = 0;
    for (const VectorOp &op : trace) {
        const std::uint64_t n = op.first.length;
        const std::uint64_t head =
            op.second ? (op.second->length + mvl - 1) / mvl * mvl : 0;
        reads += n > head ? n - head : 0;
    }
    return reads;
}

/**
 * Run `trace` solo under Auto and under Scalar, both first-touch sets
 * seeded with `seeded`; expect identical outcomes, and no fast path
 * on the Scalar walk.
 *
 * @return the Auto walk's path counts
 */
CcPathCounts
pinnedPaths(const MachineParams &m, const CacheConfig &config,
            const Trace &trace, const std::string &label,
            const std::vector<Addr> &seeded = {})
{
    CcSimulator fast(m, config);
    CcSimulator scalar(m, config);
    scalar.setEngine(SimEngine::Scalar);
    fast.seedTouchedLines(seeded);
    scalar.seedTouchedLines(seeded);
    const SimResult want = scalar.run(trace);
    const SimResult got = fast.run(trace);
    expectSame({got, fast.cache().stats()},
               {want, scalar.cache().stats()}, label);

    const CcPathCounts &oracle = scalar.pathCounts();
    EXPECT_EQ(oracle.elementWiseOps, trace.size()) << label;
    EXPECT_EQ(oracle.gangHits, 0u) << label;
    EXPECT_EQ(oracle.exactMaskGangs, 0u) << label;
    EXPECT_EQ(oracle.classifiedOps, 0u) << label;
    const CcPathCounts &paths = fast.pathCounts();
    EXPECT_EQ(paths.ops(), trace.size()) << label;
    // Only single-stream strips are probed, so no gang credits more
    // than their reads.
    EXPECT_LE(paths.gangHits, singleStreamStripReads(trace, m.mvl))
        << label;
    return paths;
}

CacheConfig
directConfig(unsigned offset_bits = 0)
{
    CacheConfig config;
    config.indexBits = kIndexBits;
    config.offsetBits = offset_bits;
    return config;
}

VectorOp
singleOp(Addr base, std::int64_t stride, std::uint64_t length)
{
    VectorOp op;
    op.first = VectorRef{base, stride, length};
    return op;
}

constexpr Addr kBase = Addr{1} << 20;

TEST(CcWalkerPaths, ColdPassTakesFreshRunsOfEitherSign)
{
    // Three fresh runs, lengths off the strip edges, one descending.
    const Trace trace = {singleOp(kBase, 1, 200),
                         singleOp(kBase + 10000, 3, 65),
                         singleOp(kBase + 20000 + 149 * 5, -5, 150)};
    for (const std::uint64_t tm : kMemoryTimes) {
        const std::string label = "tm " + std::to_string(tm);
        EXPECT_EQ(pinnedPaths(machineAt(tm), directConfig(), trace, label)
                      .coldOps,
                  3u)
            << label;
    }
}

TEST(CcWalkerPaths, ColdPassRefusesWhatItCannotProve)
{
    const VectorOp evens = singleOp(kBase, 2, 200);
    struct Case
    {
        const char *name;
        Trace trace;
        std::uint64_t coldOps;
        std::vector<Addr> seeded = {};
        BankMapping mapping = BankMapping::LowOrder;
        unsigned offsetBits = 0;
    };
    const Case cases[] = {
        // The odd words were never touched, but they lie inside the
        // first-touch extent, so only the even pass is provably cold.
        {"overlapping extent", {evens, singleOp(kBase + 1, 2, 200)}, 1},
        {"seeded first-touch set", {evens}, 0, {kBase + 100}},
        {"stride 0", {singleOp(kBase, 0, 100)}, 0},
        {"wrapping op", {singleOp(~Addr{0} - 20, 1, 64)}, 0},
        {"descending wrap", {singleOp(20, -1, 64)}, 0},
        {"stride below the line", {singleOp(kBase, 2, 100)}, 0, {},
         BankMapping::LowOrder, 2},
        {"skewed banks", {evens}, 0, {}, BankMapping::Skewed},
        {"xor banks", {evens}, 0, {}, BankMapping::XorHash},
        {"prime banks", {evens}, 1, {}, BankMapping::PrimeModulo},
    };
    for (const Case &c : cases) {
        MachineParams m = machineAt(16);
        m.bankMapping = c.mapping;
        EXPECT_EQ(pinnedPaths(m, directConfig(c.offsetBits), c.trace,
                              c.name, c.seeded)
                      .coldOps,
                  c.coldOps)
            << c.name;
    }
}

TEST(CcWalkerPaths, ExactMasksNeedAFramePeriodOfAGang)
{
    for (const std::int64_t stride : {1, 3, 4, 8, 16}) {
        // One gang that fits in the 128-frame direct cache's period,
        // min(32, 128 / stride) elements; a one-element op evicts its
        // element 5; the gang's re-walk then hits at its head and
        // misses inside.
        const auto length = static_cast<std::uint64_t>(
            std::min<std::int64_t>(32, 128 / stride));
        const VectorOp gang = singleOp(kBase, stride, length);
        const Trace trace = {gang,
                             singleOp(kBase + 5 * stride + 128 * 64, 1, 1),
                             gang};
        const std::string label = "stride " + std::to_string(stride);
        const CcPathCounts direct =
            pinnedPaths(machineAt(16), directConfig(), trace, label);
        EXPECT_EQ(direct.coldOps, 2u) << label;
        // Exact only when the period, 128 / stride, is a whole gang.
        EXPECT_EQ(direct.exactMaskGangs, 128 / stride >= 32 ? 1u : 0u)
            << label;

        // Multi-word lines never take exact masks.
        EXPECT_EQ(pinnedPaths(machineAt(16), directConfig(2), trace,
                              label + " 4-word")
                      .exactMaskGangs,
                  0u)
            << label;
    }
}

TEST(CcWalkerPaths, PaperPointTakesTheClosedForms)
{
    // m = 5, B = 8192, P_ds = 0.2: the workload of one paper point,
    // over the first eight seeds.  Each block's first op is cold (a
    // cold pass, or a cold tail when it is double-stream), its
    // single-stream repeats and re-walks take the canonical closed
    // form, and its double-stream repeats a closed tail.  Exact masks
    // still fire where no canonical state is held
    // (ExactMasksNeedAFramePeriodOfAGang).
    VcmParams p;
    p.blockingFactor = 8192;
    p.reuseFactor = 8;
    p.pDoubleStream = 0.2;
    p.blocks = 2;
    const MachineParams m = paperMachineM32();
    for (const CacheScheme scheme :
         {CacheScheme::Direct, CacheScheme::Prime}) {
        const std::string name =
            scheme == CacheScheme::Prime ? "prime" : "direct";
        CcPathCounts solo;
        CcPathCounts gang;
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const Trace trace = generateVcmTrace(p, seed);
            const std::string label =
                name + " seed " + std::to_string(seed);
            solo.add(pinnedPaths(m, ccCacheConfig(m, scheme), trace,
                                 label));

            const GangLane lanes[] = {{16, nullptr}, {64, nullptr}};
            TraceVectorSource source(trace);
            CcPathCounts paths;
            const auto results =
                simulateCcGang(m, scheme, source, lanes, &paths);
            gang.add(paths);
            for (std::size_t n = 0; n < results.size(); ++n) {
                ASSERT_TRUE(results[n].ok()) << label;
                MachineParams at = m;
                at.memoryTime = lanes[n].memoryTime;
                CcSimulator scalar(at, scheme);
                scalar.setEngine(SimEngine::Scalar);
                const SimResult want = scalar.run(trace);
                EXPECT_EQ(results[n].value().totalCycles,
                          want.totalCycles)
                    << label;
                EXPECT_EQ(results[n].value().stallCycles,
                          want.stallCycles)
                    << label;
            }
        }
        for (const CcPathCounts &c : {solo, gang}) {
            EXPECT_GT(c.coldOps, 0u) << name;
            EXPECT_GT(c.coldTails, 0u) << name;
            EXPECT_GT(c.canonicalOps, 0u) << name;
            EXPECT_GT(c.closedTails, 0u) << name;
        }
    }
}

TEST(CcWalkerPaths, PaperPointClassifiesEveryWalkAndHashesNoLine)
{
    // The workload of PaperPointTakesTheClosedForms.  Every walked op
    // -- the heads of double-stream ops, re-walks, memo certification
    // passes -- has its first touches classified from the run
    // records, so the first-touch FlatSet never takes a line: solo,
    // in gang lanes, and in the oracle, which classifies nothing.
    VcmParams p;
    p.blockingFactor = 8192;
    p.reuseFactor = 8;
    p.pDoubleStream = 0.2;
    p.blocks = 2;
    const MachineParams m = paperMachineM32();
    for (const CacheScheme scheme :
         {CacheScheme::Direct, CacheScheme::Prime}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const Trace trace = generateVcmTrace(p, seed);
            const std::string label =
                std::string(scheme == CacheScheme::Prime ? "prime"
                                                         : "direct") +
                " seed " + std::to_string(seed);
            const CcPathCounts solo =
                pinnedPaths(m, ccCacheConfig(m, scheme), trace, label);
            EXPECT_GT(solo.classifiedOps, 0u) << label;
            EXPECT_EQ(solo.classifiedOps,
                      solo.elementWiseOps + solo.refusedOps)
                << label;
            EXPECT_EQ(solo.hashedLines, 0u) << label;

            const GangLane lanes[] = {{16, nullptr}, {64, nullptr}};
            TraceVectorSource source(trace);
            CcPathCounts gang;
            ASSERT_EQ(simulateCcGang(m, scheme, source, lanes, &gang).size(),
                      2u);
            EXPECT_EQ(gang.classifiedOps,
                      gang.elementWiseOps + gang.refusedOps)
                << label;
            EXPECT_EQ(gang.hashedLines, 0u) << label;

            CcSimulator scalar(m, scheme);
            scalar.setEngine(SimEngine::Scalar);
            scalar.run(trace);
            EXPECT_EQ(scalar.pathCounts().classifiedOps, 0u) << label;
            EXPECT_GT(scalar.pathCounts().hashedLines, 0u) << label;

            // A seeded line inside the first block's first stream: no
            // walk over that block can prove its reads classified, so
            // those walks hash, and the second block's classify.
            const Addr seeded = trace.front().first.element(100);
            const CcPathCounts refused =
                pinnedPaths(m, ccCacheConfig(m, scheme), trace,
                            label + " seeded", {seeded});
            EXPECT_LT(refused.classifiedOps,
                      refused.elementWiseOps + refused.refusedOps)
                << label;
            EXPECT_GT(refused.classifiedOps, 0u) << label;
            EXPECT_GT(refused.hashedLines, 0u) << label;
        }
    }
}

TEST(CcWalkerPaths, DoubleStreamStripsAreNotProbed)
{
    // Two resident double-stream ops, alternated so the memo never
    // certifies them: every strip reads both streams, so no gang is
    // probed, and all their hits are walked.
    VectorOp a = singleOp(kBase, 1, 256);
    a.second = VectorRef{kBase + 512, 1, 256};
    VectorOp b = singleOp(kBase + 1024, 1, 256);
    b.second = VectorRef{kBase + 2048, 1, 300};
    const Trace trace = {a, b, a, b, a, b};
    CacheConfig config;
    config.indexBits = 13;
    const CcPathCounts paths =
        pinnedPaths(machineAt(16), config, trace, "double");
    EXPECT_EQ(paths.gangHits, 0u);
    EXPECT_EQ(paths.exactMaskGangs, 0u);
}

TEST(CcWalkerPaths, FlaggedFramesRefuseTheClosedForms)
{
    // A restored live point whose cache holds a dirty line in a frame
    // the trace never reads (an odd one: every stream below has an
    // even base and stride).  The first trace's repeat of X would take
    // the canonical closed form, the second's double-stream op a cold
    // tail; with the flag set, both walk.
    const VectorOp x = singleOp(kBase, 2, 200);
    VectorOp cold = singleOp(kBase + 100000, 2, 300);
    cold.second = VectorRef{kBase + 200000, 2, 40};
    const Addr dirty = kBase + 300001;
    std::vector<std::uint64_t> blob;
    {
        const auto cache = makeCache(directConfig());
        cache->access(dirty, AccessType::Write);
        cache->captureState(blob);
    }
    for (const bool restored : {false, true}) {
        const std::vector<Addr> seeded =
            restored ? std::vector<Addr>{dirty} : std::vector<Addr>{};
        for (const Trace &trace : {Trace{x, x}, Trace{cold}}) {
            const std::string label =
                std::string(restored ? "dirty " : "clean ") +
                (trace.size() == 2 ? "repeat" : "cold tail");
            CcSimulator fast(machineAt(16), directConfig());
            CcSimulator scalar(machineAt(16), directConfig());
            scalar.setEngine(SimEngine::Scalar);
            if (restored) {
                ASSERT_TRUE(fast.restoreCacheState(blob));
                ASSERT_TRUE(scalar.restoreCacheState(blob));
            }
            fast.seedTouchedLines(seeded);
            scalar.seedTouchedLines(seeded);
            const SimResult want = scalar.run(trace);
            expectSame({fast.run(trace), fast.cache().stats()},
                       {want, scalar.cache().stats()}, label);
            const CcPathCounts &paths = fast.pathCounts();
            EXPECT_EQ(paths.canonicalOps,
                      !restored && trace.size() == 2 ? 1u : 0u)
                << label;
            EXPECT_EQ(paths.coldTails,
                      !restored && trace.size() == 1 ? 1u : 0u)
                << label;
        }
    }
}

} // namespace
} // namespace vcache
