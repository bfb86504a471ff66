/**
 * Equivalence pins for the simulator fast paths.
 *
 * The CC simulator's per-element loop is monomorphized over the
 * concrete cache type and runs streamed workloads without
 * materializing traces.  These tests pin all of that against fixed
 * golden SimResults captured from the pre-optimization simulator, on
 * the three workload families the repo uses: VCM, multistride and
 * FFT.  The generic virtual-dispatch walk (every organization other
 * than direct and prime) is pinned by tests/sim/cc_fuzz_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>

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
