/**
 * Equivalence pins for the simulator fast paths.
 *
 * The CC simulator's per-element loop is monomorphized over the
 * concrete cache type and runs streamed workloads without
 * materializing traces.  These tests pin all of that against fixed
 * golden SimResults captured from the pre-optimization simulator, on
 * the three workload families the repo uses: VCM, multistride and
 * FFT.  The five other organizations of allSchemes() take the generic
 * virtual-dispatch walk; their golden counters (cache statistics
 * included) are pinned here too, and the walk itself is pinned
 * against the element-wise engine by tests/sim/cc_fuzz_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cache_schemes.hh"
#include "core/defaults.hh"
#include "sim/cc_sim.hh"
#include "trace/fft.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

namespace vcache
{
namespace
{

/** Optional timing features layered on the plain simulator. */
enum class Mode
{
    Plain,
    Prefetch,    // stride prefetch, degree 2
    NonBlocking, // lockup-free misses
};

VcmParams
goldenVcmParams()
{
    VcmParams p;
    p.blockingFactor = 512;
    p.reuseFactor = 6;
    p.blocks = 3;
    p.maxStride = 4096;
    return p;
}

MultistrideParams
goldenMultistrideParams()
{
    return MultistrideParams{1024, 12, 0.25, 8192, 0, 3};
}

const Trace &
vcmTrace()
{
    static const Trace trace = generateVcmTrace(goldenVcmParams(), 42);
    return trace;
}

const Trace &
multistrideTrace()
{
    static const Trace trace =
        generateMultistrideTrace(goldenMultistrideParams(), 7);
    return trace;
}

const Trace &
fftTrace()
{
    static const Trace trace = generateFftButterflyTrace(5, 4096);
    return trace;
}

CcSimulator
makeSim(CacheScheme scheme, Mode mode)
{
    CcSimulator sim(paperMachineM32(), scheme);
    if (mode == Mode::Prefetch)
        sim.enablePrefetch(PrefetchPolicy::Stride, 2);
    if (mode == Mode::NonBlocking)
        sim.setNonBlockingMisses(true);
    return sim;
}

void
expectSameResult(const SimResult &got, const SimResult &want)
{
    EXPECT_EQ(got.totalCycles, want.totalCycles);
    EXPECT_EQ(got.stallCycles, want.stallCycles);
    EXPECT_EQ(got.results, want.results);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.compulsoryMisses, want.compulsoryMisses);
}

/** Run `trace` and check it against the pinned golden counters. */
void
checkGolden(CacheScheme scheme, Mode mode, const Trace &trace,
            const SimResult &want, std::uint64_t want_prefetches)
{
    CcSimulator sim = makeSim(scheme, mode);
    expectSameResult(sim.run(trace), want);
    EXPECT_EQ(sim.prefetchesIssued(), want_prefetches);
}

// Golden counters captured from the simulator before the fast paths
// existed (paperMachineM32; traces as built above).  Any change here
// is a behaviour change, not an optimization.

TEST(SimulatorGolden, VcmDirect)
{
    checkGolden(CacheScheme::Direct, Mode::Plain, vcmTrace(),
                {18054u, 1166u, 9216u, 7662u, 2166u, 2147u}, 0u);
}

TEST(SimulatorGolden, VcmPrime)
{
    checkGolden(CacheScheme::Prime, Mode::Plain, vcmTrace(),
                {18198u, 1326u, 9216u, 7652u, 2176u, 2147u}, 0u);
}

TEST(SimulatorGolden, MultistrideDirect)
{
    checkGolden(CacheScheme::Direct, Mode::Plain, multistrideTrace(),
                {76216u, 10416u, 36864u, 26167u, 10697u, 10226u}, 0u);
}

TEST(SimulatorGolden, MultistridePrime)
{
    checkGolden(CacheScheme::Prime, Mode::Plain, multistrideTrace(),
                {76792u, 11120u, 36864u, 26123u, 10741u, 10226u}, 0u);
}

TEST(SimulatorGolden, FftDirect)
{
    checkGolden(CacheScheme::Direct, Mode::Plain, fftTrace(),
                {311414u, 30720u, 24576u, 45056u, 4096u, 4096u}, 0u);
}

TEST(SimulatorGolden, FftPrime)
{
    checkGolden(CacheScheme::Prime, Mode::Plain, fftTrace(),
                {311414u, 30720u, 24576u, 45056u, 4096u, 4096u}, 0u);
}

TEST(SimulatorGolden, VcmPrefetchDirect)
{
    checkGolden(CacheScheme::Direct, Mode::Prefetch, vcmTrace(),
                {18911u, 2359u, 9216u, 9195u, 633u, 614u}, 2799u);
}

TEST(SimulatorGolden, VcmPrefetchPrime)
{
    checkGolden(CacheScheme::Prime, Mode::Prefetch, vcmTrace(),
                {19058u, 2522u, 9216u, 9185u, 643u, 614u}, 2819u);
}

TEST(SimulatorGolden, MultistrideNonBlockingDirect)
{
    checkGolden(CacheScheme::Direct, Mode::NonBlocking,
                multistrideTrace(),
                {68680u, 2880u, 36864u, 26167u, 10697u, 10226u}, 0u);
}

TEST(SimulatorGolden, MultistrideNonBlockingPrime)
{
    checkGolden(CacheScheme::Prime, Mode::NonBlocking,
                multistrideTrace(),
                {68552u, 2880u, 36864u, 26123u, 10741u, 10226u}, 0u);
}

/**
 * Run `trace` through the allSchemes() configuration `scheme` and pin
 * both the machine's SimResult and the cache's own counters.
 */
void
checkOrganizationGolden(const std::string &scheme, const Trace &trace,
                        const SimResult &want,
                        const CacheStats &want_stats)
{
    SCOPED_TRACE(scheme);
    for (const auto &[name, config] : allSchemes()) {
        if (name != scheme)
            continue;
        CcSimulator sim(paperMachineM32(), config);
        expectSameResult(sim.run(trace), want);
        const CacheStats &got = sim.cache().stats();
        EXPECT_EQ(got.accesses, want_stats.accesses);
        EXPECT_EQ(got.hits, want_stats.hits);
        EXPECT_EQ(got.misses, want_stats.misses);
        EXPECT_EQ(got.reads, want_stats.reads);
        EXPECT_EQ(got.writes, want_stats.writes);
        EXPECT_EQ(got.evictions, want_stats.evictions);
        EXPECT_EQ(got.writebacks, want_stats.writebacks);
        return;
    }
    ADD_FAILURE() << "no configuration named " << scheme;
}

// Golden counters of the five organizations beyond direct and prime,
// on the same traces: SimResult as above, then CacheStats {accesses,
// hits, misses, reads, writes, evictions, writebacks}.  The fuzz
// suites compare engines over one cache class, so only these catch a
// change in a cache's own answers.

TEST(OrganizationGolden, PrimeAssoc)
{
    checkOrganizationGolden("prime-assoc", vcmTrace(),
                            {17734u, 862u, 9216u, 7681u, 2147u, 2147u},
                            {9828u, 7681u, 2147u, 9828u, 0u, 14u, 0u});
    checkOrganizationGolden("prime-assoc", multistrideTrace(),
                            {70264u, 4656u, 36864u, 26527u, 10337u, 10226u},
                            {36864u, 26527u, 10337u, 36864u, 0u, 1338u, 0u});
    checkOrganizationGolden("prime-assoc", fftTrace(),
                            {311414u, 30720u, 24576u, 45056u, 4096u, 4096u},
                            {49152u, 45056u, 4096u, 49152u, 0u, 0u, 0u});
}

TEST(OrganizationGolden, SetAssoc)
{
    checkOrganizationGolden("set-assoc", vcmTrace(),
                            {17734u, 862u, 9216u, 7681u, 2147u, 2147u},
                            {9828u, 7681u, 2147u, 9828u, 0u, 3u, 0u});
    checkOrganizationGolden("set-assoc", multistrideTrace(),
                            {71656u, 5856u, 36864u, 26452u, 10412u, 10226u},
                            {36864u, 26452u, 10412u, 36864u, 0u, 3388u, 0u});
    checkOrganizationGolden("set-assoc", fftTrace(),
                            {311414u, 30720u, 24576u, 45056u, 4096u, 4096u},
                            {49152u, 45056u, 4096u, 49152u, 0u, 0u, 0u});
}

TEST(OrganizationGolden, Xor)
{
    checkOrganizationGolden("xor", vcmTrace(),
                            {21814u, 4782u, 9216u, 7436u, 2392u, 2147u},
                            {9828u, 7436u, 2392u, 9828u, 0u, 481u, 0u});
    checkOrganizationGolden("xor", multistrideTrace(),
                            {99128u, 33264u, 36864u, 24739u, 12125u, 10226u},
                            {36864u, 24739u, 12125u, 36864u, 0u, 6201u, 0u});
    checkOrganizationGolden("xor", fftTrace(),
                            {311414u, 30720u, 24576u, 45056u, 4096u, 4096u},
                            {49152u, 45056u, 4096u, 49152u, 0u, 0u, 0u});
}

TEST(OrganizationGolden, SetAssocRandom)
{
    checkOrganizationGolden("set-assoc-random", vcmTrace(),
                            {17734u, 862u, 9216u, 7681u, 2147u, 2147u},
                            {9828u, 7681u, 2147u, 9828u, 0u, 3u, 0u});
    checkOrganizationGolden("set-assoc-random", multistrideTrace(),
                            {80904u, 15072u, 36864u, 25876u, 10988u, 10226u},
                            {36864u, 25876u, 10988u, 36864u, 0u, 3964u, 0u});
    checkOrganizationGolden("set-assoc-random", fftTrace(),
                            {311414u, 30720u, 24576u, 45056u, 4096u, 4096u},
                            {49152u, 45056u, 4096u, 49152u, 0u, 0u, 0u});
}

TEST(OrganizationGolden, Direct4Word)
{
    checkOrganizationGolden("direct-4word", vcmTrace(),
                            {22637u, 5685u, 9216u, 7592u, 2236u, 1918u},
                            {9828u, 7592u, 2236u, 9828u, 0u, 497u, 0u});
    checkOrganizationGolden("direct-4word", multistrideTrace(),
                            {103964u, 37764u, 36864u, 25245u, 11619u, 9438u},
                            {36864u, 25245u, 11619u, 36864u, 0u, 6019u, 0u});
    checkOrganizationGolden("direct-4word", fftTrace(),
                            {287878u, 7680u, 24576u, 48127u, 1025u, 1025u},
                            {49152u, 48127u, 1025u, 49152u, 0u, 0u, 0u});
}

/**
 * Streamed run (trace regenerated op by op from the source's RNG)
 * against the materialized run of the same workload, on both schemes
 * and with the prefetcher on, where the timing paths differ most.
 */
void
checkStreamedMatchesMaterialized(TraceSource &source,
                                 const Trace &trace, Mode mode)
{
    for (const auto scheme : {CacheScheme::Direct, CacheScheme::Prime}) {
        CcSimulator materialized = makeSim(scheme, mode);
        const SimResult want = materialized.run(trace);

        source.reset();
        CcSimulator streamed = makeSim(scheme, mode);
        const SimResult got = streamed.run(source);
        expectSameResult(got, want);
        EXPECT_EQ(streamed.prefetchesIssued(),
                  materialized.prefetchesIssued());
    }
}

TEST(StreamingEquivalence, Vcm)
{
    VcmTraceSource source(goldenVcmParams(), 42);
    checkStreamedMatchesMaterialized(source, vcmTrace(), Mode::Plain);
    checkStreamedMatchesMaterialized(source, vcmTrace(),
                                     Mode::Prefetch);
}

TEST(StreamingEquivalence, Multistride)
{
    MultistrideTraceSource source(goldenMultistrideParams(), 7);
    checkStreamedMatchesMaterialized(source, multistrideTrace(),
                                     Mode::Plain);
    checkStreamedMatchesMaterialized(source, multistrideTrace(),
                                     Mode::NonBlocking);
}

TEST(StreamingEquivalence, Fft)
{
    // FFT traces are deterministic; the streaming entry point sees
    // them through the materialized-trace adapter.
    TraceVectorSource source(fftTrace());
    checkStreamedMatchesMaterialized(source, fftTrace(), Mode::Plain);
}

} // namespace
} // namespace vcache
