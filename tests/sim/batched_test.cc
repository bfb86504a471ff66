/**
 * Differential pins for the run-batched execution engines.
 *
 * SimEngine::Auto may fast-forward repeated constant-stride vector
 * operations in closed form; SimEngine::Scalar is the element-wise
 * reference.  The contract is bit-identical SimResults and cache
 * statistics for every cache organization, workload family, prefetch
 * and miss-model setting -- including cancellation behaviour and, in
 * -DVCACHE_FAULT_INJECTION=ON builds, fault-site accounting.  These
 * tests sweep that whole matrix through both engines and compare
 * field by field.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache_schemes.hh"
#include "core/defaults.hh"
#include "sim/cc_sim.hh"
#include "sim/mm_sim.hh"
#include "trace/loader.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"
#include "util/faultinject.hh"

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

VcmParams
vcmParams()
{
    VcmParams p;
    p.blockingFactor = 512;
    p.reuseFactor = 6;
    p.blocks = 3;
    p.maxStride = 4096;
    return p;
}

MultistrideParams
multistrideParams()
{
    return MultistrideParams{1024, 12, 0.25, 8192, 0, 3};
}

/**
 * A hand-written trace covering the shapes the batched engines
 * special-case: repeated streaming ops with stores, stride zero,
 * negative strides, double streams, and engine-unfriendly length
 * edges (single element, exactly one strip, one strip plus one).
 */
const Trace &
loadedTrace()
{
    static const Trace trace = [] {
        std::istringstream in(R"(# batched-engine differential trace
L 0 2 300
S 65536 1 300
L 0 2 300
S 65536 1 300
L 0 2 300
S 65536 1 300
L 0 2 300
S 65536 1 300
L 100 0 64
L 100 0 64
L 100 0 64
L 9000 -3 500
L 9000 -3 500
L 9000 -3 500
D 0 1 256 131072 4 200
D 0 1 256 131072 4 200
L 4096 1 1
L 4096 1 1
L 4096 1 1
L 8192 7 64
L 8192 7 64
L 8192 7 65
L 8192 7 65
L 16384 8192 128
L 16384 8192 128
L 16384 8192 128
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
            const CcOutcome scalar = runCc(config, source,
                                           SimEngine::Scalar, prefetch,
                                           non_blocking);
            const CcOutcome batched = runCc(config, source,
                                            SimEngine::Auto, prefetch,
                                            non_blocking);
            expectSameResult(batched.result, scalar.result, tag);
            expectSameStats(batched.stats, scalar.stats, tag);
            EXPECT_EQ(batched.prefetches, scalar.prefetches) << tag;
        }
    }
}

TEST(BatchedCcDifferential, VcmTrace)
{
    VcmTraceSource source(vcmParams(), 42);
    for (const auto &[name, config] : allSchemes())
        diffCc(config, source, "vcm/" + name);
}

TEST(BatchedCcDifferential, MultistrideTrace)
{
    MultistrideTraceSource source(multistrideParams(), 7);
    for (const auto &[name, config] : allSchemes())
        diffCc(config, source, "multistride/" + name);
}

TEST(BatchedCcDifferential, LoadedTrace)
{
    TraceVectorSource source(loadedTrace());
    for (const auto &[name, config] : allSchemes())
        diffCc(config, source, "loaded/" + name);
}

TEST(BatchedCcDifferential, ConstantStrideStreams)
{
    for (const std::int64_t stride : {1, 3, 33, 8192}) {
        ConstantStrideSource source(64, stride, 1000, 25, true);
        for (const auto &[name, config] : allSchemes())
            diffCc(config, source,
                   "const-stride-" + std::to_string(stride) + "/" +
                       name);
    }
}

/** Machine variants exercising every MM fast-forward eligibility arm. */
std::vector<std::pair<std::string, MachineParams>>
mmMachines()
{
    std::vector<std::pair<std::string, MachineParams>> out;

    MachineParams base = paperMachineM32();
    out.emplace_back("m32-tm16", base);

    MachineParams fast = base;
    fast.memoryTime = 4;
    out.emplace_back("m32-tm4", fast);

    MachineParams few_banks = base;
    few_banks.bankBits = 3;
    few_banks.memoryTime = 64;
    out.emplace_back("m8-tm64", few_banks);

    MachineParams prime_banks = base;
    prime_banks.bankMapping = BankMapping::PrimeModulo;
    out.emplace_back("prime-banks", prime_banks);

    MachineParams skewed = base;
    skewed.bankMapping = BankMapping::Skewed;
    out.emplace_back("skewed", skewed);

    MachineParams xor_banks = base;
    xor_banks.bankMapping = BankMapping::XorHash;
    out.emplace_back("xor-banks", xor_banks);

    return out;
}

Trace
mmTrace()
{
    Trace trace;
    const auto add = [&](Addr base, std::int64_t stride,
                         std::uint64_t length, bool store = false) {
        VectorOp op;
        op.first = VectorRef{base, stride, length};
        if (store)
            op.store = VectorRef{base + 1000000, 1, length};
        trace.push_back(op);
    };
    add(0, 1, 1000, true);
    add(0, 1, 1000, true);
    add(64, 32, 200);
    add(64, 32, 200);
    add(7, 33, 129);
    add(512, 0, 100);
    add(1000000, -5, 300);
    add(4096, 1, 1);
    add(4096, 1, 64);
    add(4096, 1, 65);
    // A double-stream op after batched ones: its element-wise issue
    // consumes the bus/bank state the fast-forwards absorbed, so any
    // absorption error shows up as a timing difference here.
    VectorOp twin;
    twin.first = VectorRef{0, 1, 256};
    twin.second = VectorRef{500000, 4, 200};
    trace.push_back(twin);
    add(0, 2, 555);
    return trace;
}

TEST(BatchedMmDifferential, MachinesByMapping)
{
    const Trace trace = mmTrace();
    for (const auto &[name, machine] : mmMachines()) {
        MmSimulator scalar(machine);
        scalar.setEngine(SimEngine::Scalar);
        const SimResult want = scalar.run(trace);

        MmSimulator batched(machine);
        batched.setEngine(SimEngine::Auto);
        const SimResult got = batched.run(trace);
        expectSameResult(got, want, name);
    }
}

/**
 * Double-stream ops whose first stream outruns the second by at least
 * two strips (MVL 64): Auto replays the strips holding second-stream
 * elements and fast-forwards the single-stream tail, whose end state
 * the later ops then consume.
 */
Trace
doubleStreamTailTrace()
{
    Trace trace;
    const auto add = [&](VectorRef first,
                         std::optional<VectorRef> second,
                         bool store = false) {
        VectorOp op;
        op.first = first;
        op.second = second;
        if (store)
            op.store = VectorRef{first.base + 2000000, 1, first.length};
        trace.push_back(op);
    };
    // A partial last strip (1000 = 15 * 64 + 40); the second stream
    // ends mid-strip.
    add({0, 1, 1000}, VectorRef{500000, 4, 200}, true);
    add({0, 1, 1000}, VectorRef{500000, 4, 200}, true);
    // A second stream of exactly two strips; a conflicted tail
    // (stride 32 revisits one bank on 32 banks).
    add({64, 32, 517}, VectorRef{300000, 1, 128});
    // A one-element second stream.
    add({7, 33, 300}, VectorRef{900000, 3, 1});
    // Second stream as long as the first, then longer: no tail.
    add({4096, 1, 256}, VectorRef{800000, 2, 256});
    add({4096, 2, 200}, VectorRef{810000, 5, 700});
    // A negative stride through both streams.
    add({1000000, -5, 700}, VectorRef{700000, -3, 70});
    // The head wraps past 2^64 but the tail does not; then a tail
    // that wraps below 0, where the wrap moves a one-bank stride
    // (31 on 31 prime banks) to another bank (PrimeModulo replays
    // that whole op).
    add({~Addr{0} - 4, 1, 300}, VectorRef{1000, 1, 10});
    add({3000, -31, 300}, VectorRef{200000, 1, 10});
    // Single-stream ops after, consuming the tails' bank state.
    add({0, 2, 555}, std::nullopt);
    add({3, 1, 64}, std::nullopt);
    return trace;
}

TEST(BatchedMmDifferential, DoubleStreamTails)
{
    const Trace trace = doubleStreamTailTrace();
    for (const auto &[name, machine] : mmMachines()) {
        MmSimulator scalar(machine);
        scalar.setEngine(SimEngine::Scalar);
        const SimResult want = scalar.run(trace);

        MmSimulator batched(machine);
        batched.setEngine(SimEngine::Auto);
        const SimResult got = batched.run(trace);
        expectSameResult(got, want, "tails/" + name);

        // Each op alone, from a cold machine.
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const Trace one{trace[i]};
            scalar.reset();
            batched.reset();
            expectSameResult(batched.run(one), scalar.run(one),
                             "tails/" + name + "/op" +
                                 std::to_string(i));
        }
    }
}

TEST(BatchedMmDifferential, ConstantStrideStream)
{
    for (const std::int64_t stride : {1, 2, 32, 1023}) {
        ConstantStrideSource source(0, stride, 2048, 10, true);
        for (const auto &[name, machine] : mmMachines()) {
            source.reset();
            MmSimulator scalar(machine);
            scalar.setEngine(SimEngine::Scalar);
            const SimResult want = scalar.run(source);

            source.reset();
            MmSimulator batched(machine);
            batched.setEngine(SimEngine::Auto);
            const SimResult got = batched.run(source);
            expectSameResult(got, want,
                             name + "/stride" +
                                 std::to_string(stride));
        }
    }
}

/** Trips the cancel token just before the Nth op is produced. */
class CancellingSource final : public TraceSource
{
  public:
    CancellingSource(TraceSource &inner, CancelToken &token,
                     std::uint64_t after)
        : inner(inner), token(token), after(after)
    {
    }

    bool
    next(VectorOp &op) override
    {
        if (served == after)
            token.requestCancel(CancelToken::Reason::Cancelled);
        ++served;
        return inner.next(op);
    }

    void
    reset() override
    {
        served = 0;
        inner.reset();
    }

    std::uint64_t
    readFootprint() const override
    {
        return inner.readFootprint();
    }

  private:
    TraceSource &inner;
    CancelToken &token;
    std::uint64_t after;
    std::uint64_t served = 0;
};

TEST(BatchedCancellation, CcPollsPerOpInBothEngines)
{
    // Cancel mid-run, after the batched engine has certified the op
    // and is extrapolating: the poll must still fire per op.
    ConstantStrideSource stream(0, 1, 512, 40, false);
    for (const SimEngine engine :
         {SimEngine::Scalar, SimEngine::Auto}) {
        CancelToken token;
        CancellingSource source(stream, token, 10);
        source.reset();
        CcSimulator sim(paperMachineM32(), CacheConfig{});
        sim.setEngine(engine);
        sim.setCancelToken(&token);
        EXPECT_THROW(sim.run(source), VcError)
            << simEngineName(engine);
    }
}

TEST(BatchedCancellation, MmPollsPerOpInBothEngines)
{
    ConstantStrideSource stream(0, 1, 512, 40, false);
    for (const SimEngine engine :
         {SimEngine::Scalar, SimEngine::Auto}) {
        CancelToken token;
        CancellingSource source(stream, token, 10);
        source.reset();
        MmSimulator sim(paperMachineM32());
        sim.setEngine(engine);
        sim.setCancelToken(&token);
        EXPECT_THROW(sim.run(source), VcError)
            << simEngineName(engine);
    }
}

/**
 * Fault-injection interplay (compiled-in sites only): an armed plan
 * must observe identical site traffic from both engines.  The MM
 * fast-forward would skip memory.bank.issue sites, so it falls back
 * to element-wise replay when a plan is live, and so does the CC
 * walker's closed-form cold pass, which shares that closed form; the
 * CC run memo keeps batching because provably-steady passes never
 * reach those sites in either engine.
 */
class BatchedFaults : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!faults::kEnabled)
            GTEST_SKIP()
                << "fault-injection sites not compiled in";
    }

    void TearDown() override { faults::clearFaults(); }

    void
    install(const std::string &spec)
    {
        const auto plan = faults::parseFaultSpec(spec, 1);
        ASSERT_TRUE(plan.ok()) << spec;
        faults::configureFaults(plan.value());
    }
};

TEST_F(BatchedFaults, MmArmedPlanFiresIdentically)
{
    // The double-stream trace pins that an armed plan refuses a tail
    // fast-forward before the op's head strips issue.
    for (const Trace &trace : {mmTrace(), doubleStreamTailTrace()}) {
        std::uint64_t hits[2] = {0, 0};
        int threw = 0;
        int i = 0;
        for (const SimEngine engine :
             {SimEngine::Scalar, SimEngine::Auto}) {
            // Reinstall per run: site hit counters reset on install.
            install("memory.bank.issue=throw@every:1500");
            MmSimulator sim(paperMachineM32());
            sim.setEngine(engine);
            try {
                sim.run(trace);
            } catch (const VcError &) {
                ++threw;
            }
            hits[i++] = faults::faultSiteHits("memory.bank.issue");
        }
        EXPECT_EQ(threw, 2);
        EXPECT_EQ(hits[0], hits[1]);
    }
}

TEST_F(BatchedFaults, CcDormantRuleKeepsBatchingAndCountsMatch)
{
    ConstantStrideSource source(0, 1, 1000, 20, true);
    std::uint64_t hits[2] = {0, 0};
    SimResult results[2];
    int i = 0;
    for (const SimEngine engine :
         {SimEngine::Scalar, SimEngine::Auto}) {
        install("memory.bank.issue=throw@every:1000000000");
        source.reset();
        CcSimulator sim(paperMachineM32(), CacheConfig{});
        sim.setEngine(engine);
        results[i] = sim.run(source);
        hits[i] = faults::faultSiteHits("memory.bank.issue");
        ++i;
    }
    expectSameResult(results[1], results[0], "cc-armed-plan");
    EXPECT_EQ(hits[0], hits[1]);
}

TEST_F(BatchedFaults, CcArmedPlanRefusesTheColdPass)
{
    // Fresh single-stream runs: the cold pass takes every one of them
    // unless a plan is armed, and then every miss reaches the site.
    // So does a fresh double-stream op: its tail past the short second
    // stream is a cold tail.
    Trace trace;
    for (const Addr base : {Addr{1} << 20, Addr{2} << 20, Addr{3} << 20})
        trace.push_back(VectorOp{VectorRef{base, 3, 1000}, {}, {}});
    trace.push_back(VectorOp{VectorRef{Addr{4} << 20, 3, 1000},
                             VectorRef{Addr{5} << 20, 1, 100}, {}});
    std::uint64_t hits[2] = {0, 0};
    SimResult results[2];
    int i = 0;
    for (const SimEngine engine : {SimEngine::Scalar, SimEngine::Auto}) {
        install("memory.bank.issue=throw@every:1000000000");
        CcSimulator sim(paperMachineM32(), CacheConfig{});
        sim.setEngine(engine);
        results[i] = sim.run(trace);
        EXPECT_EQ(sim.pathCounts().coldOps, 0u) << simEngineName(engine);
        EXPECT_EQ(sim.pathCounts().coldTails, 0u)
            << simEngineName(engine);
        hits[i++] = faults::faultSiteHits("memory.bank.issue");
    }
    expectSameResult(results[1], results[0], "cc-armed-cold");
    EXPECT_EQ(hits[0], 4100u);
    EXPECT_EQ(hits[1], hits[0]);

    faults::clearFaults();
    CcSimulator sim(paperMachineM32(), CacheConfig{});
    expectSameResult(sim.run(trace), results[0], "cc-disarmed-cold");
    EXPECT_EQ(sim.pathCounts().coldOps, 3u);
    EXPECT_EQ(sim.pathCounts().coldTails, 1u);
}

} // namespace
} // namespace vcache
