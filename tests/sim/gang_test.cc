/**
 * Differential tests for shared-trace evaluation: the gang CC runner
 * (sim/gang.hh) against solo simulateCc, and evaluateBatch
 * (sim/evaluate.hh) against per-point evaluatePoint.  The contract
 * under test is bit-identity -- batching is a scheduling optimization
 * and must never change a single counter or cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cancelling_source.hh"
#include "core/defaults.hh"
#include "sim/evaluate.hh"
#include "sim/gang.hh"
#include "sim/runner.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"
#include "util/faultinject.hh"

namespace vcache
{
namespace
{

void
expectSameSim(const SimResult &a, const SimResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << what;
    EXPECT_EQ(a.results, b.results) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.compulsoryMisses, b.compulsoryMisses) << what;
}

void
expectSameEval(const EvalResult &a, const EvalResult &b,
               const std::string &what)
{
    EXPECT_EQ(a.modelMm, b.modelMm) << what;
    EXPECT_EQ(a.modelDirect, b.modelDirect) << what;
    EXPECT_EQ(a.modelPrime, b.modelPrime) << what;
    EXPECT_EQ(a.simMm, b.simMm) << what;
    EXPECT_EQ(a.simDirect, b.simDirect) << what;
    EXPECT_EQ(a.simPrime, b.simPrime) << what;
    EXPECT_EQ(a.mmCi, b.mmCi) << what;
    EXPECT_EQ(a.directCi, b.directCi) << what;
    EXPECT_EQ(a.primeCi, b.primeCi) << what;
    expectSameSim(a.mm, b.mm, what + " mm");
    expectSameSim(a.direct, b.direct, what + " direct");
    expectSameSim(a.prime, b.prime, what + " prime");
}

Trace
constantStrideTrace(std::int64_t stride, std::uint64_t n,
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

std::vector<Trace>
traceMatrix()
{
    std::vector<Trace> traces;
    VcmParams vcm;
    vcm.blockingFactor = 512;
    vcm.blocks = 4;
    traces.push_back(generateVcmTrace(vcm, 42));
    MultistrideParams ms;
    traces.push_back(generateMultistrideTrace(ms, 7));
    traces.push_back(constantStrideTrace(3, 1024, 4));
    return traces;
}

TEST(GangCc, MatchesSoloAcrossSchemesTracesAndLanes)
{
    const std::uint64_t tms[] = {1, 4, 16, 64};
    for (const auto &trace : traceMatrix()) {
        for (CacheScheme scheme :
             {CacheScheme::Direct, CacheScheme::Prime}) {
            std::vector<GangLane> lanes;
            for (std::uint64_t tm : tms)
                lanes.push_back(GangLane{tm, nullptr});
            TraceVectorSource source(trace);
            MachineParams base = paperMachineM64();
            const auto gang =
                simulateCcGang(base, scheme, source, lanes);
            ASSERT_EQ(gang.size(), lanes.size());
            for (std::size_t i = 0; i < lanes.size(); ++i) {
                MachineParams solo = paperMachineM64();
                solo.memoryTime = lanes[i].memoryTime;
                const SimResult want =
                    simulateCc(solo, scheme, trace);
                ASSERT_TRUE(gang[i].ok());
                expectSameSim(gang[i].value(), want,
                              "tm=" +
                                  std::to_string(lanes[i].memoryTime));
            }
        }
    }
}

TEST(GangCc, BaseMemoryTimeIsIgnored)
{
    const Trace trace = constantStrideTrace(1, 512, 3);
    MachineParams base = paperMachineM32();
    base.memoryTime = 999; // must not leak into any lane
    const GangLane lane{16, nullptr};
    TraceVectorSource source(trace);
    const auto gang = simulateCcGang(base, CacheScheme::Prime, source,
                                     std::span(&lane, 1));
    MachineParams solo = paperMachineM32();
    solo.memoryTime = 16;
    ASSERT_EQ(gang.size(), 1u);
    ASSERT_TRUE(gang[0].ok());
    expectSameSim(gang[0].value(),
                  simulateCc(solo, CacheScheme::Prime, trace), "tm=16");
}

TEST(GangCc, EmptyLaneListReturnsEmpty)
{
    const Trace trace = constantStrideTrace(1, 64, 1);
    TraceVectorSource source(trace);
    const auto gang =
        simulateCcGang(paperMachineM32(), CacheScheme::Direct, source,
                       std::span<const GangLane>{});
    EXPECT_TRUE(gang.empty());
}

/**
 * A walked double-stream head whose second stream misses cold on every
 * element: its first compulsory miss in each strip finds a strip
 * start-up pending, the rest find only the first stream's hits (lines
 * 32..127) or blocking misses (lines 0..31, evicted by the second op).
 */
Trace
coupledMissTrace()
{
    Trace trace;
    VectorOp op;
    op.first = VectorRef{0, 1, 128};
    trace.push_back(op);
    op.first = VectorRef{8192, 1, 32};
    trace.push_back(op);
    op.first = VectorRef{0, 1, 128};
    op.second = VectorRef{(1u << 20) + 4096, 1, 128};
    trace.push_back(op);
    op.first = VectorRef{0, 2, 256};
    op.second = VectorRef{(1u << 21) + 4096, 3, 200};
    trace.push_back(op);
    return trace;
}

TEST(GangCc, CoupledMissesMatchScalarWithEitherEventsPending)
{
    const Trace trace = coupledMissTrace();
    std::vector<GangLane> lanes;
    for (std::uint64_t tm : {1, 3, 16, 40, 64})
        lanes.push_back(GangLane{tm, nullptr});
    for (CacheScheme scheme : {CacheScheme::Direct, CacheScheme::Prime}) {
        TraceVectorSource source(trace);
        CcPathCounts paths;
        const auto gang = simulateCcGang(paperMachineM64(), scheme,
                                         source, lanes, &paths);
        // Both double-stream ops are walked element by element.
        EXPECT_GE(paths.elementWiseOps, 2u);
        ASSERT_EQ(gang.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            MachineParams solo = paperMachineM64();
            solo.memoryTime = lanes[i].memoryTime;
            TraceVectorSource scalar(trace);
            const SimResult want = simulateCc(solo, scheme, scalar,
                                              nullptr, SimEngine::Scalar);
            ASSERT_TRUE(gang[i].ok());
            // Every second-stream read is a first touch, as are the
            // last op's first-stream reads past line 127.
            EXPECT_EQ(gang[i].value().compulsoryMisses,
                      128u + 32u + 128u + (192u + 200u));
            expectSameSim(gang[i].value(), want,
                          "tm=" + std::to_string(lanes[i].memoryTime));
        }
    }
}

TEST(GangCc, CancelledLaneDoesNotDisturbNeighbours)
{
    // The middle lane is cancelled before the walk, or mid-walk: its
    // token trips before op 2 of coupledMissTrace(), after the gang has
    // already issued compulsory misses for it.
    struct Case
    {
        Trace trace;
        std::optional<std::uint64_t> tripAt; // none: before the walk
    };
    const Case cases[] = {{constantStrideTrace(2, 2048, 4), std::nullopt},
                          {coupledMissTrace(), 2}};
    for (const auto &[trace, trip_at] : cases) {
        CancelToken token;
        if (!trip_at)
            token.requestCancel(CancelToken::Reason::Timeout);
        const std::vector<GangLane> lanes = {
            {4, nullptr}, {16, &token}, {64, nullptr}};
        TraceVectorSource stream(trace);
        CancellingSource source(stream, token,
                                trip_at.value_or(UINT64_MAX));
        const auto gang = simulateCcGang(
            paperMachineM64(), CacheScheme::Direct, source, lanes);
        const std::string what =
            trip_at ? "tripped at op 2" : "cancelled before the walk";
        ASSERT_EQ(gang.size(), 3u) << what;
        ASSERT_FALSE(gang[1].ok()) << what;
        EXPECT_EQ(gang[1].error().code,
                  trip_at ? Errc::Cancelled : Errc::Timeout)
            << what;
        for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
            MachineParams solo = paperMachineM64();
            solo.memoryTime = lanes[i].memoryTime;
            TraceVectorSource scalar(trace);
            ASSERT_TRUE(gang[i].ok()) << what;
            expectSameSim(gang[i].value(),
                          simulateCc(solo, CacheScheme::Direct, scalar,
                                     nullptr, SimEngine::Scalar),
                          what + ", lane " + std::to_string(i));
        }
    }
}

TEST(WorkloadKey, IgnoresTimingOnlyFields)
{
    EvalRequest a;
    a.memoryTime = 4;
    a.engine = SimEngine::Auto;
    EvalRequest b;
    b.memoryTime = 64;
    b.engine = SimEngine::Sampled;
    b.targetCi = 0.01;
    EXPECT_EQ(workloadKey(a), workloadKey(b));
}

TEST(WorkloadKey, SplitsOnEveryTraceParameter)
{
    const std::string base = workloadKey(EvalRequest{});
    EvalRequest req;
    req.bankBits = 5;
    EXPECT_NE(workloadKey(req), base);
    req = {};
    req.blockingFactor = 2048;
    EXPECT_NE(workloadKey(req), base);
    req = {};
    req.pDoubleStream = 0.25;
    EXPECT_NE(workloadKey(req), base);
    req = {};
    req.seed = 2;
    EXPECT_NE(workloadKey(req), base);
}

TEST(WorkloadKey, ModelOnlyRequestsShareOneKey)
{
    EvalRequest a;
    a.sim = false;
    EvalRequest b;
    b.sim = false;
    b.blockingFactor = 4096;
    b.seed = 9;
    EXPECT_EQ(workloadKey(a), workloadKey(b));
    EvalRequest c; // sim on: different key space entirely
    EXPECT_NE(workloadKey(a), workloadKey(c));
}

TEST(BatchEval, SharedWorkloadGridIsBitIdenticalToPointwise)
{
    std::vector<EvalRequest> reqs;
    for (std::uint64_t tm = 4; tm <= 32; tm += 4) {
        EvalRequest req;
        req.memoryTime = tm;
        req.blockingFactor = 512;
        req.seed = 42;
        reqs.push_back(req);
    }
    const auto batch = evaluateBatch(reqs);
    ASSERT_EQ(batch.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto solo = evaluatePoint(reqs[i]);
        ASSERT_TRUE(solo.ok());
        ASSERT_TRUE(batch[i].ok());
        expectSameEval(batch[i].value(), solo.value(),
                       "i=" + std::to_string(i));
    }
}

TEST(BatchEval, MixedGroupsEnginesAndModelOnlyInterleaved)
{
    std::vector<EvalRequest> reqs;
    // Group 1: m=6 B=512 seed=1, exact engines (Auto and Scalar mix).
    for (std::uint64_t tm : {8u, 24u}) {
        EvalRequest req;
        req.memoryTime = tm;
        req.blockingFactor = 512;
        req.seed = 1;
        req.engine = tm == 8 ? SimEngine::Auto : SimEngine::Scalar;
        reqs.push_back(req);
    }
    // Model-only point interleaved mid-batch.
    {
        EvalRequest req;
        req.sim = false;
        req.memoryTime = 32;
        reqs.push_back(req);
    }
    // Group 2: different workload (m=5 seed=2).
    for (std::uint64_t tm : {4u, 16u}) {
        EvalRequest req;
        req.bankBits = 5;
        req.memoryTime = tm;
        req.blockingFactor = 512;
        req.seed = 2;
        reqs.push_back(req);
    }
    // Sampled member of group 1's workload.
    {
        EvalRequest req;
        req.memoryTime = 16;
        req.blockingFactor = 512;
        req.seed = 1;
        req.engine = SimEngine::Sampled;
        req.targetCi = 0.05;
        reqs.push_back(req);
    }
    const auto batch = evaluateBatch(reqs);
    ASSERT_EQ(batch.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto solo = evaluatePoint(reqs[i]);
        ASSERT_TRUE(solo.ok()) << i;
        ASSERT_TRUE(batch[i].ok()) << i;
        expectSameEval(batch[i].value(), solo.value(),
                       "i=" + std::to_string(i));
    }
}

TEST(BatchEval, InvalidRequestFailsAloneNeighboursUnharmed)
{
    std::vector<EvalRequest> reqs(3);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].memoryTime = 8 * (i + 1);
        reqs[i].blockingFactor = 512;
        reqs[i].seed = 3;
    }
    reqs[1].pDoubleStream = 2.0; // invalid
    const auto batch = evaluateBatch(reqs);
    ASSERT_EQ(batch.size(), 3u);
    ASSERT_FALSE(batch[1].ok());
    EXPECT_EQ(batch[1].error().code, Errc::InvalidConfig);
    for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
        const auto solo = evaluatePoint(reqs[i]);
        ASSERT_TRUE(solo.ok());
        ASSERT_TRUE(batch[i].ok());
        expectSameEval(batch[i].value(), solo.value(),
                       "i=" + std::to_string(i));
    }
}

TEST(BatchEval, PerRequestCancelIsIsolated)
{
    std::vector<EvalRequest> reqs(4);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].memoryTime = 4 * (i + 1);
        reqs[i].blockingFactor = 512;
        reqs[i].seed = 5;
    }
    CancelToken timeout;
    timeout.requestCancel(CancelToken::Reason::Timeout);
    CancelToken cancelled;
    cancelled.requestCancel(CancelToken::Reason::Cancelled);
    std::vector<const CancelToken *> cancels = {nullptr, &timeout,
                                                &cancelled, nullptr};
    const auto batch = evaluateBatch(reqs, cancels);
    ASSERT_EQ(batch.size(), 4u);
    ASSERT_FALSE(batch[1].ok());
    EXPECT_EQ(batch[1].error().code, Errc::Timeout);
    ASSERT_FALSE(batch[2].ok());
    EXPECT_EQ(batch[2].error().code, Errc::Cancelled);
    for (std::size_t i : {std::size_t{0}, std::size_t{3}}) {
        const auto solo = evaluatePoint(reqs[i]);
        ASSERT_TRUE(solo.ok());
        ASSERT_TRUE(batch[i].ok());
        expectSameEval(batch[i].value(), solo.value(),
                       "i=" + std::to_string(i));
    }
}

TEST(BatchEval, BatchWideCancelStopsEveryRequest)
{
    std::vector<EvalRequest> reqs(3);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].memoryTime = 8 * (i + 1);
        reqs[i].blockingFactor = 512;
    }
    CancelToken cancel;
    cancel.requestCancel(CancelToken::Reason::Timeout);
    const auto batch = evaluateBatch(reqs, {}, &cancel);
    ASSERT_EQ(batch.size(), 3u);
    for (const auto &r : batch) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, Errc::Timeout);
    }
}

TEST(BatchEval, EmptyBatchReturnsEmpty)
{
    EXPECT_TRUE(evaluateBatch({}).empty());
}

TEST(BatchEval, ArmedFaultPlanMatchesPointwiseSiteForSite)
{
    if (!faults::kEnabled)
        GTEST_SKIP() << "fault-injection sites compiled out";
    // With a plan armed the batch engine must fall back to per-point
    // evaluation over the shared arena, so the memory.bank.issue hit
    // sequence -- and therefore which request the fault lands on --
    // is identical to a pointwise loop under the same plan.
    std::vector<EvalRequest> reqs(3);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].memoryTime = 8 * (i + 1);
        reqs[i].blockingFactor = 256;
        reqs[i].seed = 11;
    }
    const char *spec = "memory.bank.issue=throw@every:100000";
    const auto plan = faults::parseFaultSpec(spec, 1);
    ASSERT_TRUE(plan.ok());

    faults::configureFaults(plan.value());
    const auto batch = evaluateBatch(reqs);
    faults::configureFaults(plan.value()); // reset trigger state
    std::vector<Expected<EvalResult>> solo;
    for (const auto &req : reqs)
        solo.push_back(evaluatePoint(req));
    faults::clearFaults();

    ASSERT_EQ(batch.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
        ASSERT_EQ(batch[i].ok(), solo[i].ok()) << i;
        if (batch[i].ok())
            expectSameEval(batch[i].value(), solo[i].value(),
                           "i=" + std::to_string(i));
        else
            EXPECT_EQ(batch[i].error().code, solo[i].error().code)
                << i;
    }
}

TEST(BatchEval, ArenaOverloadMatchesFreshEvaluation)
{
    EvalRequest req;
    req.blockingFactor = 512;
    req.seed = 13;
    const TraceArena arena = buildTraceArena(req);
    for (std::uint64_t tm : {4u, 32u}) {
        req.memoryTime = tm;
        const auto shared = evaluatePoint(req, arena, nullptr);
        const auto fresh = evaluatePoint(req);
        ASSERT_TRUE(shared.ok());
        ASSERT_TRUE(fresh.ok());
        expectSameEval(shared.value(), fresh.value(),
                       "tm=" + std::to_string(tm));
    }
}

} // namespace
} // namespace vcache
