/**
 * Property tests tying Equations (1)-(8) to the concrete machine
 * models: the closed forms must equal direct enumeration over the
 * stride distribution, and the per-stride conflict counts they are
 * built from must match what the real cache/memory objects do.
 */

#include <gtest/gtest.h>

#include "analytic/cc_model.hh"
#include "analytic/mm_model.hh"
#include "cache/mapped.hh"
#include "core/defaults.hh"
#include "memory/sweep_model.hh"
#include "numtheory/divisors.hh"
#include "numtheory/gcd.hh"
#include "sim/runner.hh"

namespace vcache
{
namespace
{

TEST(EquationProperties, MmSelfInterferenceEqualsStrideAverage)
{
    // I_s^M is exactly the expectation of the per-stride sweep stall
    // formula over the non-unit strides 2..M (the paper's bracket).
    for (unsigned bank_bits : {4u, 5u, 6u}) {
        for (std::uint64_t tm : {2ull, 5ull, 8ull, 13ull, 16ull}) {
            MachineParams m = paperMachineM32();
            m.bankBits = bank_bits;
            m.memoryTime = tm;
            const std::uint64_t banks = m.banks();
            if (tm >= banks)
                continue;

            double sum = 0.0;
            for (std::uint64_t s = 2; s <= banks; ++s)
                sum += sweepStallCycles(banks, s, m.mvl, tm);
            const double p1 = 0.25;
            const double expect =
                (1.0 - p1) / static_cast<double>(banks - 1) * sum;
            EXPECT_NEAR(selfInterferenceMmSum(m, p1), expect,
                        1e-9 * (1.0 + expect))
                << "M=" << banks << " tm=" << tm;
        }
    }
}

TEST(EquationProperties, CcSelfInterferenceEqualsStrideAverage)
{
    // I_s^C(B) is t_m times the expected overflow B - C/gcd(C, s)
    // over strides 2..C.
    MachineParams m = paperMachineM32();
    const std::uint64_t c = m.cacheLines(CacheScheme::Direct);
    for (double b : {64.0, 100.0, 1000.0, 4096.0, 8191.0}) {
        double sum = 0.0;
        for (std::uint64_t s = 2; s <= c; ++s) {
            const double coverage =
                static_cast<double>(c / gcd(c, s % c == 0 ? c : s % c));
            if (b > coverage)
                sum += b - coverage;
        }
        const double p1 = 0.25;
        const double expect = (1.0 - p1) /
                              static_cast<double>(c - 1) * sum *
                              static_cast<double>(m.memoryTime);
        EXPECT_NEAR(selfInterferenceDirectSum(m, b, p1), expect,
                    1e-6 * (1.0 + expect))
            << "B=" << b;
    }
}

class StrideConflicts : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StrideConflicts, DirectSweepDisplacementsMatchCoverageFormula)
{
    // Equation (5)'s per-stride ingredient, measured on the real
    // cache: loading a B-element stride-s vector into the cold cache
    // displaces exactly B - C/gcd(C, s) of its own elements ("there
    // will be B - C/gcd(C, s1) self-interferences").
    const std::uint64_t s = GetParam();
    const std::uint64_t b = 4096;
    const AddressLayout layout(0, 13, 32);
    DirectMappedCache cache(layout);

    std::uint64_t displacements = 0;
    for (std::uint64_t i = 0; i < b; ++i)
        displacements += cache.access(s * i).evicted;

    const std::uint64_t coverage = sweepCoverage(8192, s);
    const std::uint64_t expect = b > coverage ? b - coverage : 0;
    EXPECT_EQ(displacements, expect) << "stride " << s;
}

TEST_P(StrideConflicts, PrimeSweepDisplacementsMatchEquation8Premise)
{
    // Equation (8)'s premise: only strides that are multiples of the
    // prime cache size self-interfere at all.
    const std::uint64_t s = GetParam();
    const std::uint64_t b = 4096;
    const AddressLayout layout(0, 13, 32);
    PrimeMappedCache cache(layout);

    std::uint64_t displacements = 0;
    for (std::uint64_t i = 0; i < b; ++i)
        displacements += cache.access(s * i).evicted;

    if (s % 8191 == 0)
        EXPECT_EQ(displacements, b - 1); // everything on one line
    else
        EXPECT_EQ(displacements, 0u) << "stride " << s;
}

INSTANTIATE_TEST_SUITE_P(
    Strides, StrideConflicts,
    testing::Values(1ull, 2ull, 3ull, 4ull, 8ull, 16ull, 64ull,
                    100ull, 512ull, 1024ull, 2048ull, 4096ull,
                    8191ull, 8192ull, 12345ull));

TEST(EquationProperties, BlockTimeMatchesMmSimulatorExactly)
{
    // Equation (1) with T_elem = 1 against the simulator on a
    // conflict-free unit-stride block: identical cycle counts.
    MachineParams m = paperMachineM32();
    for (std::uint64_t b : {64ull, 100ull, 1024ull, 4000ull}) {
        Trace trace;
        VectorOp op;
        op.first = VectorRef{0, 1, b};
        trace.push_back(op);
        const auto r = simulateMm(m, trace);
        EXPECT_DOUBLE_EQ(static_cast<double>(r.totalCycles),
                         blockTime(m, static_cast<double>(b), 1.0))
            << "B=" << b;
    }
}

TEST(EquationProperties, PrimeSelfInterferenceScalesWithBlock)
{
    // Equation (8) is linear in (B - 1).
    const MachineParams m = paperMachineM32();
    const double base = selfInterferencePrime(m, 2.0, 0.25);
    for (double b : {3.0, 11.0, 1001.0}) {
        EXPECT_NEAR(selfInterferencePrime(m, b, 0.25),
                    base * (b - 1.0), 1e-9 * b);
    }
}

} // namespace
} // namespace vcache
