/** Tests for the interleaved-bank memory model. */

#include <gtest/gtest.h>

#include <numeric>

#include "memory/interleaved.hh"
#include "memory/sweep_model.hh"
#include "trace/access.hh"

namespace vcache
{
namespace
{

std::vector<Addr>
stridedAddrs(Addr base, std::uint64_t stride, std::uint64_t n)
{
    return expand(VectorRef{base, static_cast<std::int64_t>(stride), n});
}

TEST(InterleavedMemory, BankAssignment)
{
    InterleavedMemory mem(3, 4); // 8 banks
    EXPECT_EQ(mem.banks(), 8u);
    EXPECT_EQ(mem.bankOf(0), 0u);
    EXPECT_EQ(mem.bankOf(7), 7u);
    EXPECT_EQ(mem.bankOf(8), 0u);
    EXPECT_EQ(mem.bankOf(13), 5u);
}

TEST(InterleavedMemory, UnitStrideStreamsWithoutStalls)
{
    // t_m <= M: consecutive words hit distinct banks and the stream
    // never waits.
    InterleavedMemory mem(3, 8);
    const auto r = mem.streamAccess(stridedAddrs(0, 1, 64));
    EXPECT_EQ(r.stallCycles, 0u);
    EXPECT_EQ(r.finishCycle, 64u);
}

TEST(InterleavedMemory, SingleBankStrideSerialises)
{
    // Stride M: every access to bank 0, each waits t_m after the
    // first.
    InterleavedMemory mem(3, 5);
    const auto r = mem.streamAccess(stridedAddrs(0, 8, 10));
    EXPECT_EQ(r.stallCycles, 9u * 4u); // (t_m - 1) per later element
}

TEST(InterleavedMemory, StallsMatchSweepModel)
{
    // The simulated steady-state throughput must match the closed
    // form (t_m - V) * L / V for long streams.
    for (std::uint64_t stride : {1ull, 2ull, 4ull, 8ull, 16ull}) {
        InterleavedMemory mem(4, 12); // 16 banks, t_m = 12
        const std::uint64_t n = 4096;
        const auto r = mem.streamAccess(stridedAddrs(0, stride, n));
        const double model = sweepStallCycles(16, stride, n, 12);
        EXPECT_NEAR(static_cast<double>(r.stallCycles), model,
                    model * 0.02 + 16.0)
            << "stride " << stride;
    }
}

TEST(InterleavedMemory, IssueRespectsBusyBank)
{
    InterleavedMemory mem(2, 6); // 4 banks
    EXPECT_EQ(mem.issue(0, 0), 0u);
    EXPECT_EQ(mem.issue(4, 1), 6u); // same bank: wait until free
    EXPECT_EQ(mem.issue(1, 1), 1u); // different bank: immediate
}

TEST(InterleavedMemory, ResetFreesBanks)
{
    InterleavedMemory mem(2, 6);
    mem.issue(0, 0);
    mem.reset();
    EXPECT_EQ(mem.issue(0, 0), 0u);
}

/** Element-wise reference for issueStripRun(): MM-style strips. */
void
issueStripsElementWise(InterleavedMemory &mem, Cycles gap,
                       std::uint64_t mvl, const VectorRef &run,
                       Cycles &clock, Cycles &stall)
{
    for (std::uint64_t done = 0; done < run.length; done += mvl) {
        clock += gap;
        const std::uint64_t count = std::min(mvl, run.length - done);
        for (std::uint64_t i = 0; i < count; ++i) {
            const Cycles when = mem.issue(run.element(done + i), clock);
            stall += when - clock;
            clock = when + 1;
        }
    }
}

/** Every bank's busy horizon, probed on a copy of the memory. */
std::vector<Cycles>
bankHorizons(const InterleavedMemory &mem)
{
    std::vector<Cycles> out;
    for (std::uint64_t b = 0; b < mem.banks(); ++b) {
        InterleavedMemory probe = mem;
        out.push_back(probe.issue(b, 0)); // word b lives in bank b
    }
    return out;
}

/**
 * issueStripRun() against element-wise issue behind the same strip
 * gaps -- clock, stall and every bank's horizon -- over two runs in a
 * row, the second (stride -s) starting from the first's end state.
 */
void
expectStripRunsExact(BankMapping mapping, unsigned bits,
                     std::int64_t stride, std::uint64_t mvl,
                     std::uint64_t length, Cycles tm, Cycles gap)
{
    InterleavedMemory fast(bits, tm, mapping);
    InterleavedMemory ref(bits, tm, mapping);
    Cycles fast_clock = 5, ref_clock = 5;
    Cycles fast_stall = 0, ref_stall = 0;
    for (const VectorRef &run :
         {VectorRef{(1u << 20) + 7, stride, length},
          VectorRef{(1u << 21) + 3, -stride, length + 1}}) {
        SCOPED_TRACE(::testing::Message()
                     << "mapping " << static_cast<int>(mapping)
                     << " M " << fast.banks() << " stride " << run.stride
                     << " mvl " << mvl << " length " << run.length
                     << " t_m " << tm << " gap " << gap);
        ASSERT_TRUE(
            fast.canIssueStripRun(gap, run.base, run.stride, run.length));
        fast.issueStripRun(gap, mvl, run.base, run.stride, run.length,
                           fast_clock, fast_stall);
        issueStripsElementWise(ref, gap, mvl, run, ref_clock, ref_stall);
        ASSERT_EQ(fast_clock, ref_clock);
        ASSERT_EQ(fast_stall, ref_stall);
        ASSERT_EQ(bankHorizons(fast), bankHorizons(ref));
    }
}

TEST(InterleavedMemory, StripRunMatchesElementWiseIssue)
{
    // Strides 0, +-1, +-3, +-M/2 and multiples of M; lengths below, at
    // and above the bank period Q; t_m below and above Q, with every
    // start-up freeing the banks (gap + 1 >= t_m); MVL 48 and 100 are
    // not multiples of every Q.
    for (const BankMapping mapping :
         {BankMapping::LowOrder, BankMapping::PrimeModulo}) {
        for (unsigned bits = 1; bits <= 6; ++bits) {
            const std::uint64_t m =
                InterleavedMemory(bits, 1, mapping).banks();
            const auto sm = static_cast<std::int64_t>(m);
            for (const std::int64_t stride :
                 {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                  std::int64_t{3}, std::int64_t{-3}, sm / 2, -(sm / 2),
                  sm, 2 * sm, -sm}) {
                const std::uint64_t q =
                    m / std::gcd(static_cast<std::uint64_t>(
                                     ((stride % sm) + sm) % sm),
                                 m);
                for (const std::uint64_t mvl : {64, 48, 100})
                    for (const std::uint64_t length :
                         {std::uint64_t{1}, q > 1 ? q - 1 : 1, q, q + 1,
                          3 * q + 2, 2 * mvl + 5})
                        for (const Cycles tm : {1, 2, 5, 17, 70})
                            for (const Cycles gap : {tm - 1, tm + 6})
                                expectStripRunsExact(mapping, bits,
                                                     stride, mvl, length,
                                                     tm, gap);
            }
        }
    }
}

TEST(SweepModel, BanksVisited)
{
    EXPECT_EQ(banksVisited(32, 1), 32u);
    EXPECT_EQ(banksVisited(32, 4), 8u);
    EXPECT_EQ(banksVisited(32, 12), 8u);
    EXPECT_EQ(banksVisited(32, 32), 1u);
}

TEST(SweepModel, NoStallWhenCoverageExceedsBusyTime)
{
    EXPECT_DOUBLE_EQ(sweepStallCycles(32, 1, 1000, 16), 0.0);
    EXPECT_DOUBLE_EQ(sweepStallCycles(32, 2, 1000, 16), 0.0);
}

TEST(SweepModel, StallFormula)
{
    // V = 4 banks, t_m = 16: each revisit waits 12 cycles.
    EXPECT_DOUBLE_EQ(sweepStallCycles(32, 8, 64, 16),
                     12.0 * 64.0 / 4.0);
    // Single-bank case degenerates to (t_m - 1) per element.
    EXPECT_DOUBLE_EQ(sweepStallCycles(32, 32, 64, 16), 15.0 * 64.0);
}

} // namespace
} // namespace vcache
