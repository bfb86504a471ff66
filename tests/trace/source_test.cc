/**
 * Tests for the streaming trace sources: each stochastic source must
 * yield exactly the operations of its batch generator, in order, and
 * reset() must restart the stream from the same RNG state.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>

#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

namespace vcache
{
namespace
{

void
expectSameRef(const VectorRef &got, const VectorRef &want)
{
    EXPECT_EQ(got.base, want.base);
    EXPECT_EQ(got.stride, want.stride);
    EXPECT_EQ(got.length, want.length);
}

void
expectSameOps(TraceSource &source, const Trace &trace)
{
    VectorOp op;
    std::size_t i = 0;
    while (source.next(op)) {
        ASSERT_LT(i, trace.size());
        const VectorOp &want = trace[i++];
        expectSameRef(op.first, want.first);
        ASSERT_EQ(op.second.has_value(), want.second.has_value());
        if (op.second)
            expectSameRef(*op.second, *want.second);
        ASSERT_EQ(op.store.has_value(), want.store.has_value());
        if (op.store)
            expectSameRef(*op.store, *want.store);
    }
    EXPECT_EQ(i, trace.size());
    // An exhausted source stays exhausted until reset.
    EXPECT_FALSE(source.next(op));
}

TEST(VcmTraceSource, MatchesBatchGeneratorAndResets)
{
    VcmParams p;
    p.blockingFactor = 256;
    p.reuseFactor = 4;
    p.pDoubleStream = 0.5;
    p.blocks = 3;
    p.maxStride = 4096;
    const Trace trace = generateVcmTrace(p, 99);
    ASSERT_FALSE(trace.empty());

    VcmTraceSource source(p, 99);
    expectSameOps(source, trace);
    source.reset();
    expectSameOps(source, trace);
}

TEST(MultistrideTraceSource, MatchesBatchGeneratorAndResets)
{
    const MultistrideParams p{512, 6, 0.25, 8192, 0, 2};
    const Trace trace = generateMultistrideTrace(p, 5);
    ASSERT_FALSE(trace.empty());

    MultistrideTraceSource source(p, 5);
    expectSameOps(source, trace);
    source.reset();
    expectSameOps(source, trace);
}

TEST(MultistrideTraceSource, ZeroReuseIsEmpty)
{
    const MultistrideParams p{512, 6, 0.25, 8192, 0, 0};
    MultistrideTraceSource source(p, 5);
    VectorOp op;
    EXPECT_FALSE(source.next(op));
    source.reset();
    EXPECT_FALSE(source.next(op));
}

TEST(TraceVectorSource, WalksAndRewinds)
{
    Trace trace;
    VectorOp op;
    op.first = VectorRef{16, 2, 8};
    trace.push_back(op);
    op.first = VectorRef{0, 1, 4};
    op.store = VectorRef{64, 1, 4};
    trace.push_back(op);

    TraceVectorSource source(trace);
    expectSameOps(source, trace);
    source.reset();
    expectSameOps(source, trace);
}

/** Distinct words a trace's loads read, both streams in full. */
std::uint64_t
distinctWordsRead(const Trace &trace)
{
    std::set<Addr> words;
    for (const VectorOp &op : trace) {
        for (std::uint64_t i = 0; i < op.first.length; ++i)
            words.insert(op.first.element(i));
        if (op.second)
            for (std::uint64_t i = 0; i < op.second->length; ++i)
                words.insert(op.second->element(i));
    }
    return words.size();
}

/**
 * The read-footprint contract for one source over the workload
 * `trace` it emits: the bound covers every distinct word read, and
 * asking for it -- mid-stream too -- leaves the stream where it was.
 */
void
expectFootprintBound(TraceSource &source, const Trace &trace)
{
    ASSERT_GE(trace.size(), 2u);
    source.reset();
    const std::uint64_t bound = source.readFootprint();
    EXPECT_GE(bound, distinctWordsRead(trace));

    VectorOp op;
    ASSERT_TRUE(source.next(op));
    EXPECT_EQ(op, trace[0]);
    EXPECT_EQ(source.readFootprint(), bound);
    ASSERT_TRUE(source.next(op));
    EXPECT_EQ(op, trace[1]);
}

TEST(ReadFootprint, VcmSourceDrainsACopy)
{
    VcmParams p;
    p.blockingFactor = 300;
    p.reuseFactor = 4;
    p.pDoubleStream = 0.5;
    p.blocks = 3;
    p.maxStride = 64;
    VcmTraceSource source(p, 7);
    expectFootprintBound(source, generateVcmTrace(p, 7));
}

TEST(ReadFootprint, MultistrideSourceDrainsACopy)
{
    const MultistrideParams p{512, 6, 0.25, 64, 0, 2};
    MultistrideTraceSource source(p, 5);
    expectFootprintBound(source, generateMultistrideTrace(p, 5));
}

TEST(ReadFootprint, ConstantStrideSourceIsItsLength)
{
    ConstantStrideSource source(64, 3, 1000, 5, true);
    const Trace trace = materializeTrace(source);
    expectFootprintBound(source, trace);
    EXPECT_EQ(source.readFootprint(), 1000u);
    EXPECT_EQ(ConstantStrideSource(64, 3, 1000, 0).readFootprint(),
              0u);
}

TEST(ReadFootprint, VectorAndSliceSourcesScanTheirRange)
{
    VcmParams p;
    p.blockingFactor = 200;
    p.reuseFactor = 3;
    p.pDoubleStream = 1.0;
    p.blocks = 4;
    const Trace trace = generateVcmTrace(p, 3);

    TraceVectorSource whole(trace);
    expectFootprintBound(whole, trace);

    TraceSliceSource slice(trace, 4, 9);
    const Trace window(trace.begin() + 4, trace.begin() + 9);
    expectFootprintBound(slice, window);
    // A slice reads no more than the whole trace; an inverted one
    // reads nothing.
    EXPECT_LE(slice.readFootprint(), whole.readFootprint());
    EXPECT_EQ(TraceSliceSource(trace, 9, 4).readFootprint(), 0u);
}

} // namespace
} // namespace vcache
