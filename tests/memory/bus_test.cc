/** Tests for the pipelined bus model. */

#include <gtest/gtest.h>

#include <algorithm>

#include "memory/bus.hh"

namespace vcache
{
namespace
{

TEST(PipelinedBus, OneTransferPerCycle)
{
    PipelinedBus bus;
    EXPECT_EQ(bus.reserve(0), 0u);
    EXPECT_EQ(bus.reserve(0), 1u); // must wait a cycle
    EXPECT_EQ(bus.reserve(0), 2u);
    EXPECT_EQ(bus.nextFreeAt(), 3u);
}

TEST(PipelinedBus, NoContentionWhenSpaced)
{
    PipelinedBus bus;
    EXPECT_EQ(bus.reserve(0), 0u);
    EXPECT_EQ(bus.reserve(5), 5u);
    EXPECT_EQ(bus.nextFreeAt(), 6u);
}

TEST(PipelinedBus, Reset)
{
    PipelinedBus bus;
    bus.reserve(0);
    bus.reserve(0);
    bus.reset();
    EXPECT_EQ(bus.nextFreeAt(), 0u);
    EXPECT_EQ(bus.reserve(0), 0u);
}

TEST(BusSet, TwoReadBusesDoubleThroughput)
{
    BusSet buses;
    // Four reads at cycle 0: two per bus, finishing by cycle 1.
    Cycles worst = 0;
    for (int i = 0; i < 4; ++i)
        worst = std::max(worst, buses.reserveRead(0));
    EXPECT_EQ(worst, 1u);
    // Both buses are busy through cycle 1, so a fifth read waits.
    EXPECT_EQ(buses.reserveRead(0), 2u);
}

TEST(BusSet, Reset)
{
    BusSet buses;
    buses.reserveRead(0);
    buses.reserveRead(0);
    buses.reset();
    EXPECT_EQ(buses.reserveRead(0), 0u);
    EXPECT_EQ(buses.reserveRead(0), 0u);
}

} // namespace
} // namespace vcache
