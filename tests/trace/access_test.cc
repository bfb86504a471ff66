/** Tests for vector access records and trace flattening. */

#include <gtest/gtest.h>

#include <optional>

#include "trace/access.hh"

namespace vcache
{
namespace
{

TEST(VectorRef, ElementAddresses)
{
    const VectorRef r{100, 3, 5};
    EXPECT_EQ(r.element(0), 100u);
    EXPECT_EQ(r.element(4), 112u);
}

TEST(VectorRef, NegativeStride)
{
    const VectorRef r{100, -10, 4};
    EXPECT_EQ(r.element(0), 100u);
    EXPECT_EQ(r.element(3), 70u);
}

TEST(Expand, ProducesAllElements)
{
    const auto v = expand(VectorRef{0, 2, 4});
    EXPECT_EQ(v, (std::vector<Addr>{0, 2, 4, 6}));
}

TEST(TraceCounts, LoadsAndStores)
{
    Trace t;
    VectorOp a;
    a.first = {0, 1, 10};
    t.push_back(a);
    VectorOp b;
    b.first = {0, 1, 10};
    b.second = VectorRef{100, 1, 5};
    b.store = VectorRef{200, 1, 10};
    t.push_back(b);

    EXPECT_EQ(loadedElements(t), 25u);
    EXPECT_EQ(totalElements(t), 35u);
}

TEST(Flatten, InterleavesDoubleStreams)
{
    VectorOp op;
    op.first = {0, 1, 3};
    op.second = VectorRef{100, 1, 2};
    const auto flat = flatten({op});
    EXPECT_EQ(flat, (std::vector<Addr>{0, 100, 1, 101, 2}));
}

TEST(Flatten, AppendsStores)
{
    VectorOp op;
    op.first = {0, 1, 2};
    op.store = VectorRef{50, 1, 2};
    const auto flat = flatten({op});
    EXPECT_EQ(flat, (std::vector<Addr>{0, 1, 50, 51}));
}

TEST(VectorOp, DoubleStreamFlag)
{
    VectorOp op;
    op.first = {0, 1, 1};
    EXPECT_FALSE(op.doubleStream());
    op.second = VectorRef{1, 1, 1};
    EXPECT_TRUE(op.doubleStream());
}

VectorOp
loadOp(VectorRef first, std::optional<VectorRef> second = {})
{
    VectorOp op;
    op.first = first;
    op.second = second;
    return op;
}

TEST(ReadFootprintBound, SumsDistinctReadReferences)
{
    // The repeated first stream counts once; the store not at all.
    VectorOp stored = loadOp({0, 1, 100});
    stored.store = VectorRef{5000, 1, 4000};
    const Trace trace{loadOp({0, 1, 100}, VectorRef{1000, 2, 50}),
                      loadOp({0, 1, 100}), stored};
    EXPECT_EQ(readFootprintBound(trace), 150u);
    EXPECT_EQ(readFootprintBound({}), 0u);
}

TEST(ReadFootprintBound, OverlappingReferencesCapAtTheirExtent)
{
    // 250 summed elements over the 110 words [0, 110).
    const Trace trace{loadOp({0, 1, 100}), loadOp({10, 1, 100}),
                      loadOp({0, 2, 50})};
    EXPECT_EQ(readFootprintBound(trace), 110u);
    // One address read 1000 times.
    EXPECT_EQ(readFootprintBound(Trace{loadOp({5, 0, 1000})}), 1u);
    // A sparse negative-stride reference: its length is the bound.
    EXPECT_EQ(readFootprintBound(Trace{loadOp({100, -10, 4})}), 4u);
}

TEST(ReadFootprintBound, WrappingReferenceFallsBackToLengths)
{
    // {2, -1, 10} wraps below address 0, so it has no one extent.
    const Trace trace{loadOp({2, -1, 10}), loadOp({1000, 1, 5}),
                      loadOp({1000, 1, 5})};
    EXPECT_EQ(readFootprintBound(trace), 15u);
}

} // namespace
} // namespace vcache
