/**
 * The zero-cost contract, checked from the outside: instrumenting a
 * run must never change it.  Every simulator path is run twice --
 * plain (NullObserver) and with a TracingObserver riding along -- and
 * the SimResults must be bit-identical.  The observer's own counters
 * must then reconcile exactly with the SimResult it watched, and the
 * per-set miss histograms must separate the two mapping schemes (the
 * acceptance criterion for the traced direct-vs-prime VCM run).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "../sim/fuzz_trace.hh"

#include "core/defaults.hh"
#include "obs/observer.hh"
#include "obs/trace_events.hh"
#include "obs/tracing_observer.hh"
#include "sim/cc_sim.hh"
#include "sim/mm_sim.hh"
#include "trace/fft.hh"
#include "trace/multistride.hh"
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

const Trace &
vcmTrace()
{
    VcmParams p;
    p.blockingFactor = 512;
    p.reuseFactor = 6;
    p.blocks = 3;
    p.maxStride = 4096;
    static const Trace trace = generateVcmTrace(p, 42);
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

std::uint64_t
counterValue(const TracingObserver &obs, const std::string &name)
{
    const Counter *c = obs.registry().findCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c ? c->value : 0;
}

/**
 * Plain run, NullObserver run and TracingObserver run of the same
 * workload must produce identical SimResults; the tracing counters
 * must add up to exactly what the SimResult reports.
 */
void
checkObserved(CacheScheme scheme, Mode mode)
{
    CcSimulator plain = makeSim(scheme, mode);
    const SimResult want = plain.run(vcmTrace());

    NullObserver null_obs;
    CcSimulator nulled = makeSim(scheme, mode);
    expectSameResult(nulled.run(vcmTrace(), null_obs), want);

    TracingObserver traced("cc");
    CcSimulator observed = makeSim(scheme, mode);
    const SimResult got = observed.run(vcmTrace(), traced);
    expectSameResult(got, want);
    EXPECT_EQ(observed.prefetchesIssued(), plain.prefetchesIssued());

    // Counter reconciliation: the observer saw every event exactly
    // once.
    EXPECT_EQ(counterValue(traced, "vector_ops"), vcmTrace().size());
    EXPECT_EQ(counterValue(traced, "hits"), want.hits);
    EXPECT_EQ(counterValue(traced, "misses_compulsory"),
              want.compulsoryMisses);
    EXPECT_EQ(counterValue(traced, "misses_compulsory") +
                  counterValue(traced, "misses_conflict") +
                  counterValue(traced, "misses_nonblocking"),
              want.misses);
    EXPECT_EQ(counterValue(traced, "prefetch_issues"),
              plain.prefetchesIssued());
    if (mode == Mode::NonBlocking) {
        EXPECT_EQ(counterValue(traced, "misses_conflict"), 0u);
    }
    // Every stall cycle is attributed: misses plus (with the
    // prefetcher on) waits for in-flight lines.
    EXPECT_EQ(counterValue(traced, "miss_stall_cycles") +
                  counterValue(traced, "prefetch_late_cycles"),
              want.stallCycles);
    // Per-set bookkeeping covers every demand access.
    EXPECT_EQ(traced.setAccessHistogram().sampleSum(),
              want.hits + want.misses);
    EXPECT_EQ(traced.setMissHistogram().sampleSum(), want.misses);
}

TEST(ObserverEquivalence, VcmDirect)
{
    checkObserved(CacheScheme::Direct, Mode::Plain);
}

TEST(ObserverEquivalence, VcmPrime)
{
    checkObserved(CacheScheme::Prime, Mode::Plain);
}

TEST(ObserverEquivalence, VcmPrefetchDirect)
{
    checkObserved(CacheScheme::Direct, Mode::Prefetch);
}

TEST(ObserverEquivalence, VcmPrefetchPrime)
{
    checkObserved(CacheScheme::Prime, Mode::Prefetch);
}

TEST(ObserverEquivalence, VcmNonBlockingDirect)
{
    checkObserved(CacheScheme::Direct, Mode::NonBlocking);
}

TEST(ObserverEquivalence, VcmNonBlockingPrime)
{
    checkObserved(CacheScheme::Prime, Mode::NonBlocking);
}

TEST(ObserverEquivalence, MmSimulatorUnchanged)
{
    MmSimulator plain(paperMachineM32());
    const SimResult want = plain.run(vcmTrace());

    TracingObserver traced("mm");
    MmSimulator observed(paperMachineM32());
    expectSameResult(observed.run(vcmTrace(), traced), want);
    EXPECT_EQ(counterValue(traced, "vector_ops"), vcmTrace().size());
}

/**
 * The acceptance-criteria artifact in miniature: the same VCM trace
 * through both schemes, and the per-set miss pile-up that direct
 * mapping suffers (the paper's self-interference) visible in the
 * observer's histograms while prime mapping spreads it flat.
 */
TEST(ObserverEquivalence, SchemesSeparateInSetHistograms)
{
    TracingObserver direct("cc_direct");
    {
        CcSimulator sim = makeSim(CacheScheme::Direct, Mode::Plain);
        sim.run(vcmTrace(), direct);
    }
    TracingObserver prime("cc_prime");
    {
        CcSimulator sim = makeSim(CacheScheme::Prime, Mode::Plain);
        sim.run(vcmTrace(), prime);
    }
    // Conflict misses concentrate on few sets under direct mapping;
    // prime mapping's whole point is that they do not.
    EXPECT_GT(direct.setMissHistogram().max(),
              prime.setMissHistogram().max());
}

/**
 * The event stream and interval windows are on-top features: enabling
 * them must not perturb the timing either, and the window rows must
 * tile the run.
 */
TEST(ObserverEquivalence, EventsAndWindowsDoNotPerturbTiming)
{
    CcSimulator plain = makeSim(CacheScheme::Direct, Mode::Plain);
    const SimResult want = plain.run(vcmTrace());

    std::ostringstream sink;
    SimResult got;
    {
        TraceEventWriter writer(sink);
        TracingConfig cfg;
        cfg.statsInterval = 1000;
        TracingObserver traced("cc_direct", cfg, &writer, 0);
        CcSimulator sim = makeSim(CacheScheme::Direct, Mode::Plain);
        got = sim.run(vcmTrace(), traced);
        expectSameResult(got, want);

        ASSERT_FALSE(traced.intervals().empty());
        std::uint64_t accesses = 0;
        for (const auto &row : traced.intervals()) {
            EXPECT_LT(row.startCycle, row.endCycle);
            accesses += row.accesses;
        }
        EXPECT_EQ(accesses, want.hits + want.misses);
        EXPECT_LE(traced.intervals().back().endCycle,
                  want.totalCycles);
    }
    EXPECT_NE(sink.str().find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(sink.str().find("cc_direct"), std::string::npos);
}

/** Records every read-bus arbitration the simulator reports. */
struct BusWaitRecorder : NullObserver
{
    static constexpr bool kEnabled = true;

    void
    onBusWait(Cycles, Cycles waited)
    {
        ++reads;
        waitedCycles += waited;
    }

    std::uint64_t reads = 0;
    Cycles waitedCycles = 0;
};

const Trace &
fftTrace()
{
    Fft2dParams p;
    p.b1 = 128;
    p.b2 = 64;
    static const Trace trace = generateFft2dTrace(p);
    return trace;
}

const Trace &
multistrideTrace()
{
    MultistrideParams p;
    p.sweeps = 24;
    static const Trace trace = generateMultistrideTrace(p, 7);
    return trace;
}

CacheConfig
busTestCache(Organization organization)
{
    CacheConfig config =
        ccCacheConfig(paperMachineM32(), CacheScheme::Direct);
    config.organization = organization;
    return config;
}

/**
 * The invariant the uninstrumented engines' bus elision rests on
 * (see sim/cc_sim.hh): without prefetching no read ever waits for a
 * read bus, whatever the cache, miss model or workload.  The observed
 * runs drive the real BusSet; the plain runs skip it, and must agree.
 */
TEST(BusInertness, NoReadWaitsWithoutPrefetch)
{
    const Trace *traces[] = {&vcmTrace(), &fftTrace(),
                             &multistrideTrace()};
    for (const Organization org :
         {Organization::DirectMapped, Organization::PrimeMapped,
          Organization::SetAssociative}) {
        for (const bool non_blocking : {false, true}) {
            for (const Trace *trace : traces) {
                CcSimulator plain(paperMachineM32(), busTestCache(org));
                plain.setNonBlockingMisses(non_blocking);
                const SimResult want = plain.run(*trace);

                BusWaitRecorder rec;
                CcSimulator observed(paperMachineM32(),
                                     busTestCache(org));
                observed.setNonBlockingMisses(non_blocking);
                expectSameResult(observed.run(*trace, rec), want);
                EXPECT_GE(rec.reads, want.compulsoryMisses);
                EXPECT_EQ(rec.waitedCycles, 0u)
                    << "organization " << static_cast<int>(org)
                    << " non-blocking " << non_blocking;
            }
        }
    }
}

/**
 * The same invariant for the MM machine (see sim/mm_sim.hh): at most
 * two reads per issue cycle over two read buses, so no read ever
 * waits, on any bank mapping or memory time, double streams
 * included.  Only the observed run reserves buses; the plain run
 * (Auto, fast-forwarding where it can) must agree with it.
 */
TEST(BusInertness, MmReadsNeverWait)
{
    std::vector<Trace> traces{vcmTrace(), fftTrace(),
                              multistrideTrace()};
    for (const std::uint64_t seed : kFuzzSeeds)
        traces.push_back(fuzzTrace(seed));
    for (const BankMapping mapping :
         {BankMapping::LowOrder, BankMapping::Skewed,
          BankMapping::XorHash, BankMapping::PrimeModulo}) {
        for (const std::uint64_t tm : {1u, 16u, 64u}) {
            MachineParams m = paperMachineM32();
            m.memoryTime = tm;
            m.bankMapping = mapping;
            for (std::size_t t = 0; t < traces.size(); ++t) {
                MmSimulator plain(m);
                const SimResult want = plain.run(traces[t]);

                BusWaitRecorder rec;
                MmSimulator observed(m);
                expectSameResult(observed.run(traces[t], rec), want);
                EXPECT_GE(rec.reads, want.results);
                EXPECT_EQ(rec.waitedCycles, 0u)
                    << "mapping " << static_cast<int>(mapping)
                    << " t_m " << tm << " trace " << t;
            }
        }
    }
}

/** Prefetches do contend for the read buses, so the recorder sees
 *  waits there -- the check above is not vacuous. */
TEST(BusInertness, PrefetchReadsDoWait)
{
    BusWaitRecorder rec;
    CcSimulator sim = makeSim(CacheScheme::Direct, Mode::Prefetch);
    sim.run(vcmTrace(), rec);
    EXPECT_GT(sim.prefetchesIssued(), 0u);
    EXPECT_GT(rec.waitedCycles, 0u);
}

} // namespace
} // namespace vcache
