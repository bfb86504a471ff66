/** Tests for the trace-driven CC-model simulator. */

#include <gtest/gtest.h>

#include <span>

#include "core/defaults.hh"
#include "sim/cc_sim.hh"
#include "sim/gang.hh"
#include "sim/runner.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

namespace vcache
{
namespace
{

Trace
repeatedSweep(std::int64_t stride, std::uint64_t n,
              std::uint64_t repeats)
{
    Trace trace;
    for (std::uint64_t r = 0; r < repeats; ++r) {
        VectorOp op;
        op.first = VectorRef{0, stride, n};
        trace.push_back(op);
    }
    return trace;
}

TEST(CcSimulator, CacheConfigMatchesScheme)
{
    const MachineParams m = paperMachineM32();
    EXPECT_EQ(ccCacheConfig(m, CacheScheme::Direct).organization,
              Organization::DirectMapped);
    EXPECT_EQ(ccCacheConfig(m, CacheScheme::Prime).organization,
              Organization::PrimeMapped);
    CcSimulator direct(m, CacheScheme::Direct);
    EXPECT_EQ(direct.cache().numLines(), 8192u);
    CcSimulator prime(m, CacheScheme::Prime);
    EXPECT_EQ(prime.cache().numLines(), 8191u);
}

TEST(CcSimulator, FirstPassIsCompulsoryOnly)
{
    const MachineParams m = paperMachineM32();
    const auto r =
        simulateCc(m, CacheScheme::Prime, repeatedSweep(1, 1024, 1));
    EXPECT_EQ(r.misses, 1024u);
    EXPECT_EQ(r.compulsoryMisses, 1024u);
    EXPECT_EQ(r.hits, 0u);
}

TEST(CcSimulator, ReusedUnitStrideDataHits)
{
    const MachineParams m = paperMachineM32();
    const auto r =
        simulateCc(m, CacheScheme::Prime, repeatedSweep(1, 1024, 4));
    EXPECT_EQ(r.misses, 1024u);
    EXPECT_EQ(r.hits, 3u * 1024u);
}

TEST(CcSimulator, PowerOfTwoStrideThrashesDirectOnly)
{
    // Stride 2048 over the 8192-line direct cache: 4-line coverage.
    const MachineParams m = paperMachineM32();
    const auto trace = repeatedSweep(2048, 1024, 4);

    const auto direct = simulateCc(m, CacheScheme::Direct, trace);
    const auto prime = simulateCc(m, CacheScheme::Prime, trace);

    EXPECT_EQ(prime.misses, 1024u); // compulsory only
    EXPECT_GT(direct.misses, 4000u); // nearly everything
    EXPECT_LT(prime.totalCycles, direct.totalCycles / 2);
}

TEST(CcSimulator, InterferenceMissCostsMemoryTime)
{
    MachineParams m = paperMachineM32();
    m.memoryTime = 16;
    // Two lines aliasing in a direct cache, accessed alternately.
    Trace trace;
    for (int i = 0; i < 8; ++i) {
        VectorOp op;
        op.first = VectorRef{static_cast<Addr>(i % 2 ? 8192 : 0), 1, 1};
        trace.push_back(op);
    }
    const auto r = simulateCc(m, CacheScheme::Direct, trace);
    EXPECT_EQ(r.misses, 8u);
    EXPECT_EQ(r.compulsoryMisses, 2u);
    // The six interference misses stall t_m each.
    EXPECT_EQ(r.stallCycles, 6u * 16u);
}

/**
 * The all-ones line is the first-touch set's empty-slot marker.  It
 * must still classify compulsory exactly once -- on both solo engines,
 * across reset(), and on the gang lanes -- and time exactly like an
 * ordinary line in the same frame and bank.
 */
TEST(CcSimulator, AllOnesLineIsCompulsoryOnce)
{
    MachineParams m = paperMachineM32();
    m.memoryTime = 16;
    // ~0 and 8191 share direct frame 8191 and the last bank, as does
    // the ordinary stand-in 16383.
    const auto alternate = [](Addr a) {
        Trace trace;
        for (int i = 0; i < 8; ++i) {
            VectorOp op;
            op.first = VectorRef{i % 2 ? Addr{8191} : a, 1, 1};
            trace.push_back(op);
        }
        return trace;
    };
    const Trace trace = alternate(~Addr{0});
    const SimResult want =
        simulateCc(m, CacheScheme::Direct, alternate(16383));
    ASSERT_EQ(want.misses, 8u);
    ASSERT_EQ(want.compulsoryMisses, 2u);

    const auto expectSame = [&](const SimResult &r) {
        EXPECT_EQ(r.misses, want.misses);
        EXPECT_EQ(r.compulsoryMisses, want.compulsoryMisses);
        EXPECT_EQ(r.stallCycles, want.stallCycles);
        EXPECT_EQ(r.totalCycles, want.totalCycles);
    };
    for (const SimEngine engine : {SimEngine::Scalar, SimEngine::Auto}) {
        CcSimulator sim(m, CacheScheme::Direct);
        sim.setEngine(engine);
        for (int round = 0; round < 2; ++round) {
            SCOPED_TRACE(round);
            expectSame(sim.run(trace));
            sim.reset();
        }
    }

    const GangLane lane{16, nullptr};
    TraceVectorSource source(trace);
    const auto gang = simulateCcGang(m, CacheScheme::Direct, source,
                                     std::span(&lane, 1));
    ASSERT_EQ(gang.size(), 1u);
    ASSERT_TRUE(gang[0].ok());
    expectSame(gang[0].value());
}

TEST(CcSimulator, WarmStripSkipsMemoryStartup)
{
    MachineParams m = paperMachineM32();
    // Cold pass vs warm pass over one 64-element strip.
    const auto one = simulateCc(m, CacheScheme::Prime,
                                repeatedSweep(1, 64, 1));
    const auto two = simulateCc(m, CacheScheme::Prime,
                                repeatedSweep(1, 64, 2));
    // The second pass costs blockOverhead + strip(15 + 46 - 16) + 64
    // = 119 cycles.
    EXPECT_EQ(two.totalCycles - one.totalCycles, 119u);
}

TEST(CcSimulator, PrimeBeatsDirectOnRandomMultistride)
{
    const MachineParams m = paperMachineM32();
    const auto trace = generateMultistrideTrace(
        MultistrideParams{2048, 64, 0.25, 8192, 0}, 13);
    const auto direct = simulateCc(m, CacheScheme::Direct, trace);
    const auto prime = simulateCc(m, CacheScheme::Prime, trace);
    EXPECT_LT(prime.missRatio(), direct.missRatio());
    EXPECT_LT(prime.totalCycles, direct.totalCycles);
}

TEST(CcSimulator, ResetGivesRepeatableRuns)
{
    const MachineParams m = paperMachineM32();
    CcSimulator sim(m, CacheScheme::Prime);
    const auto trace = repeatedSweep(5, 300, 3);
    const auto a = sim.run(trace);
    sim.reset();
    const auto b = sim.run(trace);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.hits, b.hits);
}

TEST(CcSimulator, CustomCacheConfiguration)
{
    // The simulator accepts any cache, e.g. 2-way set-associative.
    const MachineParams m = paperMachineM32();
    CacheConfig config;
    config.organization = Organization::SetAssociative;
    config.indexBits = 13;
    config.associativity = 2;
    CcSimulator sim(m, config);
    const auto r = sim.run(repeatedSweep(1, 256, 2));
    EXPECT_EQ(r.hits, 256u);
}

TEST(CcSimulatorPrefetch, CannotFixInterference)
{
    // Stride 2048 over the direct cache collapses onto 4 frames:
    // prefetches land on the frames the demand stream is thrashing
    // and evict each other, so even deep prefetching leaves the full
    // miss penalty (the paper's argument against [8]'s schemes).
    MachineParams m = paperMachineM32();
    m.memoryTime = 16;
    const auto trace = repeatedSweep(2048, 1024, 4);

    CcSimulator bare(m, CacheScheme::Direct);
    const auto r_bare = bare.run(trace);

    for (unsigned degree : {1u, 4u, 16u}) {
        CcSimulator pf(m, CacheScheme::Direct);
        pf.enablePrefetch(PrefetchPolicy::Stride, degree);
        const auto r_pf = pf.run(trace);
        EXPECT_GT(pf.prefetchesIssued(), 0u);
        EXPECT_GT(r_pf.stallCycles, r_bare.stallCycles / 2)
            << "degree " << degree;
    }

    // The bare prime cache removes the interference instead.
    CcSimulator prime(m, CacheScheme::Prime);
    const auto r_prime = prime.run(trace);
    EXPECT_LT(r_prime.stallCycles, r_bare.stallCycles / 4);
}

TEST(CcSimulatorPrefetch, FixesCapacityStreamingNotInterference)
{
    // A 16K-word unit-stride stream re-swept through the 8K cache:
    // every re-sweep access is a *capacity* miss costing t_m, even
    // though the 32 banks could stream it.  Sequential prefetching
    // recovers almost all of it -- the one job prefetch does well.
    // (Interference misses are the CannotFixInterference test; note
    // cache-thrashing strides are multiples of 32 and therefore
    // bank-serialised too, so prefetch has no bandwidth to use
    // there.)
    MachineParams m = paperMachineM32();
    m.memoryTime = 16;
    const auto trace = repeatedSweep(1, 16384, 3);

    CcSimulator bare(m, CacheScheme::Direct);
    const auto r_bare = bare.run(trace);
    ASSERT_GT(r_bare.stallCycles, 2u * 16384u * 12u); // capacity bound

    CcSimulator pf(m, CacheScheme::Direct);
    pf.enablePrefetch(PrefetchPolicy::Sequential, 2);
    const auto r_pf = pf.run(trace);
    EXPECT_LT(r_pf.stallCycles, r_bare.stallCycles / 4);

    // The prime mapping does NOT help capacity misses: the working
    // set simply does not fit.
    CcSimulator prime(m, CacheScheme::Prime);
    const auto r_prime = prime.run(trace);
    EXPECT_GT(r_prime.stallCycles, r_bare.stallCycles / 2);
}

TEST(CcSimulatorPrefetch, SequentialHelpsUnitStrideCompulsories)
{
    MachineParams m = paperMachineM32();
    // A long unit-stride first pass is already pipelined; sequential
    // prefetch must not make it slower.
    const auto trace = repeatedSweep(1, 2048, 2);
    CcSimulator bare(m, CacheScheme::Direct);
    CcSimulator pf(m, CacheScheme::Direct);
    pf.enablePrefetch(PrefetchPolicy::Sequential, 2);
    const auto r_bare = bare.run(trace);
    const auto r_pf = pf.run(trace);
    EXPECT_LE(r_pf.totalCycles, r_bare.totalCycles * 1.1);
}

TEST(CcSimulatorPrefetch, ResetClearsPrefetchState)
{
    MachineParams m = paperMachineM32();
    CcSimulator sim(m, CacheScheme::Direct);
    sim.enablePrefetch(PrefetchPolicy::Stride, 4);
    const auto trace = repeatedSweep(512, 256, 2);
    const auto a = sim.run(trace);
    const auto issued = sim.prefetchesIssued();
    sim.reset();
    const auto b = sim.run(trace);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(sim.prefetchesIssued(), issued);
}

TEST(CcSimulatorNonBlocking, PipelinedMissesCostBankSlotsNotStalls)
{
    MachineParams m = paperMachineM32();
    m.memoryTime = 16;
    // Stride 2048 re-sweeps: all interference misses.
    const auto trace = repeatedSweep(2048, 1024, 4);

    CcSimulator blocking(m, CacheScheme::Direct);
    const auto r_block = blocking.run(trace);

    CcSimulator lockup_free(m, CacheScheme::Direct);
    lockup_free.setNonBlockingMisses(true);
    const auto r_free = lockup_free.run(trace);

    // Same misses, far fewer stalls -- but not zero: stride 2048
    // hits one bank (2048 mod 32 == 0), so the pipelined misses
    // still serialise on it.
    EXPECT_EQ(r_free.misses, r_block.misses);
    EXPECT_LT(r_free.totalCycles, r_block.totalCycles);
    EXPECT_GT(r_free.stallCycles, 0u);

    // The prime cache needs neither assumption.
    CcSimulator prime(m, CacheScheme::Prime);
    const auto r_prime = prime.run(trace);
    EXPECT_LT(r_prime.totalCycles, r_free.totalCycles);
}

TEST(CcSimulatorNonBlocking, NoEffectWhenNoInterference)
{
    MachineParams m = paperMachineM32();
    const auto trace = repeatedSweep(1, 1024, 3);
    CcSimulator a(m, CacheScheme::Prime);
    CcSimulator b(m, CacheScheme::Prime);
    b.setNonBlockingMisses(true);
    EXPECT_EQ(a.run(trace).totalCycles, b.run(trace).totalCycles);
}

TEST(SimResult, DerivedRatios)
{
    SimResult r;
    r.totalCycles = 1000;
    r.results = 250;
    r.hits = 30;
    r.misses = 10;
    EXPECT_DOUBLE_EQ(r.cyclesPerResult(), 4.0);
    EXPECT_DOUBLE_EQ(r.missRatio(), 0.25);
}

} // namespace
} // namespace vcache
