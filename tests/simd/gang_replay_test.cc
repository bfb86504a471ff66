/**
 * Gang-replay differential matrix: SimResults and cache statistics
 * under SimEngine::Auto, which takes the CC walker's SIMD gang probe
 * and run memo, must be bit-identical to SimEngine::Scalar, the
 * element-at-a-time strip walk.
 *
 * Equality here proves the gang probe's all-hit skip never changes
 * what is simulated, across every cache organization, workload family
 * (including double streams), prefetch and non-blocking setting, and
 * with observers attached.  Runs under every backend the CI matrix
 * forces via VCACHE_SIMD, so the scalar and AVX2 gangs are both
 * pinned.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/defaults.hh"
#include "obs/observer.hh"
#include "obs/tracing_observer.hh"
#include "sim/cc_sim.hh"
#include "trace/loader.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

namespace vcache
{
namespace
{

void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &label)
{
    EXPECT_EQ(got.totalCycles, want.totalCycles) << label;
    EXPECT_EQ(got.stallCycles, want.stallCycles) << label;
    EXPECT_EQ(got.results, want.results) << label;
    EXPECT_EQ(got.hits, want.hits) << label;
    EXPECT_EQ(got.misses, want.misses) << label;
    EXPECT_EQ(got.compulsoryMisses, want.compulsoryMisses) << label;
}

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &label)
{
    EXPECT_EQ(got.accesses, want.accesses) << label;
    EXPECT_EQ(got.reads, want.reads) << label;
    EXPECT_EQ(got.writes, want.writes) << label;
    EXPECT_EQ(got.hits, want.hits) << label;
    EXPECT_EQ(got.misses, want.misses) << label;
    EXPECT_EQ(got.evictions, want.evictions) << label;
    EXPECT_EQ(got.writebacks, want.writebacks) << label;
}

std::uint64_t
counterOf(const TracingObserver &obs, const std::string &name)
{
    const Counter *c = obs.registry().findCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c ? c->value : 0;
}

/** The same seven organizations the batched suite pins. */
std::vector<std::pair<std::string, CacheConfig>>
allSchemes()
{
    std::vector<std::pair<std::string, CacheConfig>> out;

    CacheConfig direct;
    out.emplace_back("direct", direct);

    CacheConfig prime;
    prime.organization = Organization::PrimeMapped;
    out.emplace_back("prime", prime);

    CacheConfig prime_assoc;
    prime_assoc.organization = Organization::PrimeSetAssociative;
    prime_assoc.associativity = 2;
    out.emplace_back("prime-assoc", prime_assoc);

    CacheConfig set_assoc;
    set_assoc.organization = Organization::SetAssociative;
    set_assoc.associativity = 4;
    out.emplace_back("set-assoc", set_assoc);

    CacheConfig xor_mapped;
    xor_mapped.organization = Organization::XorMapped;
    out.emplace_back("xor", xor_mapped);

    CacheConfig random_assoc;
    random_assoc.organization = Organization::SetAssociative;
    random_assoc.associativity = 4;
    random_assoc.replacement = ReplacementKind::Random;
    out.emplace_back("set-assoc-random", random_assoc);

    CacheConfig wide_lines;
    wide_lines.offsetBits = 2;
    out.emplace_back("direct-4word", wide_lines);

    return out;
}

/**
 * Double-stream, stride-0, negative-stride and gang-boundary shapes
 * (lengths around the 32-element CC gang).
 */
const Trace &
gangEdgeTrace()
{
    static const Trace trace = [] {
        std::istringstream in(R"(# gang-replay differential trace
L 0 3 300
L 0 3 300
S 65536 1 300
L 0 3 300
D 0 1 256 131072 4 200
D 0 1 300 131072 4 120
L 100 0 64
L 9000 -3 500
L 4096 1 1
L 8192 7 31
L 8192 7 32
L 8192 7 33
L 8192 7 65
L 16384 8192 128
)");
        return loadTrace(in);
    }();
    return trace;
}

struct CcOutcome
{
    SimResult result;
    CacheStats stats;
    std::uint64_t prefetches;
};

CcOutcome
runCc(const CacheConfig &config, TraceSource &source, SimEngine engine,
      bool prefetch, bool non_blocking)
{
    CcSimulator sim(paperMachineM32(), config);
    if (prefetch)
        sim.enablePrefetch(PrefetchPolicy::Stride, 2);
    sim.setNonBlockingMisses(non_blocking);
    sim.setEngine(engine);
    source.reset();
    const SimResult result = sim.run(source);
    return {result, sim.cache().stats(), sim.prefetchesIssued()};
}

void
diffCc(const CacheConfig &config, TraceSource &source,
       const std::string &label)
{
    for (const bool prefetch : {false, true}) {
        for (const bool non_blocking : {false, true}) {
            const std::string tag = label +
                                    (prefetch ? "+prefetch" : "") +
                                    (non_blocking ? "+nonblock" : "");
            const CcOutcome want = runCc(config, source,
                                         SimEngine::Scalar, prefetch,
                                         non_blocking);
            const CcOutcome got = runCc(config, source, SimEngine::Auto,
                                        prefetch, non_blocking);
            expectSameResult(got.result, want.result, tag);
            expectSameStats(got.stats, want.stats, tag);
            EXPECT_EQ(got.prefetches, want.prefetches) << tag;
        }
    }
}

TEST(GangReplayCc, VcmTrace)
{
    VcmParams p;
    p.blockingFactor = 512;
    p.reuseFactor = 6;
    p.blocks = 3;
    p.maxStride = 4096;
    VcmTraceSource source(p, 42);
    for (const auto &[name, config] : allSchemes())
        diffCc(config, source, "vcm/" + name);
}

TEST(GangReplayCc, MultistrideTrace)
{
    MultistrideTraceSource source(
        MultistrideParams{1024, 12, 0.25, 8192, 0, 3}, 7);
    for (const auto &[name, config] : allSchemes())
        diffCc(config, source, "multistride/" + name);
}

TEST(GangReplayCc, GangEdgeTrace)
{
    TraceVectorSource source(gangEdgeTrace());
    for (const auto &[name, config] : allSchemes())
        diffCc(config, source, "edges/" + name);
}

TEST(GangReplayCc, ConstantStrideStreams)
{
    for (const std::int64_t stride : {1, 3, 33, 8192}) {
        ConstantStrideSource source(64, stride, 1000, 25, true);
        for (const auto &[name, config] : allSchemes())
            diffCc(config, source,
                   "const-stride-" + std::to_string(stride) + "/" +
                       name);
    }
}

/**
 * Observers compile the gang path out (the hook sees every element),
 * so an instrumented Auto run must equal the plain Scalar run and the
 * observer's counters must still reconcile.
 */
TEST(GangReplayCc, ObserversOnMatchesScalar)
{
    TraceVectorSource source(gangEdgeTrace());
    for (const auto &[name, config] : allSchemes()) {
        const CcOutcome want = runCc(config, source, SimEngine::Scalar,
                                     false, false);

        CcSimulator sim(paperMachineM32(), config);
        TracingObserver traced("cc");
        source.reset();
        const SimResult got = sim.run(source, traced);
        expectSameResult(got, want.result, "observed/" + name);
        expectSameStats(sim.cache().stats(), want.stats,
                        "observed/" + name);
        EXPECT_EQ(counterOf(traced, "hits"), got.hits) << name;
    }
}

} // namespace
} // namespace vcache
