/** Tests for linear-congruence solving and cross-conflict counting. */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "numtheory/congruence.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace vcache
{
namespace
{

TEST(LinearCongruence, UniqueSolution)
{
    // 3x == 2 (mod 7): x = 3.
    const auto xs = solveLinearCongruence(3, 2, 7);
    ASSERT_EQ(xs.size(), 1u);
    EXPECT_EQ(xs[0], 3u);
}

TEST(LinearCongruence, MultipleSolutions)
{
    // 4x == 8 (mod 12): gcd 4 divides 8 -> 4 solutions {2, 5, 8, 11}.
    const auto xs = solveLinearCongruence(4, 8, 12);
    EXPECT_EQ(xs, (std::vector<std::uint64_t>{2, 5, 8, 11}));
}

TEST(LinearCongruence, NoSolution)
{
    // 4x == 6 (mod 12): gcd 4 does not divide 6.
    EXPECT_TRUE(solveLinearCongruence(4, 6, 12).empty());
}

TEST(LinearCongruence, ZeroCoefficient)
{
    EXPECT_EQ(solveLinearCongruence(0, 0, 4).size(), 4u);
    EXPECT_TRUE(solveLinearCongruence(0, 3, 4).empty());
}

TEST(LinearCongruence, AgainstBruteForce)
{
    Rng rng(101);
    for (int trial = 0; trial < 300; ++trial) {
        const std::uint64_t m = rng.uniformInt(1, 40);
        const std::uint64_t a = rng.uniformInt(0, 80);
        const std::uint64_t b = rng.uniformInt(0, 80);
        std::vector<std::uint64_t> ref;
        for (std::uint64_t x = 0; x < m; ++x)
            if (a * x % m == b % m)
                ref.push_back(x);
        EXPECT_EQ(solveLinearCongruence(a, b, m), ref)
            << a << "x=" << b << " mod " << m;
    }
}

TEST(CrossConflict, SolverMatchesBruteForce)
{
    Rng rng(103);
    for (int trial = 0; trial < 200; ++trial) {
        CrossConflictQuery q;
        q.banks = std::uint64_t{1} << rng.uniformInt(0, 6);
        q.s1 = rng.uniformInt(1, q.banks);
        q.s2 = rng.uniformInt(1, q.banks);
        q.startDistance = rng.uniformInt(1, q.banks);
        q.elements = rng.uniformInt(1, 64);
        q.busyTime = rng.uniformInt(1, 16);
        EXPECT_EQ(crossConflictStalls(q), crossConflictStallsBruteForce(q))
            << "s1=" << q.s1 << " s2=" << q.s2 << " D="
            << q.startDistance << " M=" << q.banks << " n="
            << q.elements << " tm=" << q.busyTime;
    }
}

TEST(CrossConflict, NoConflictWhenDistanceUnreachable)
{
    // Even strides modulo an even modulus cannot bridge an odd D.
    CrossConflictQuery q{2, 2, 1, 8, 16, 4};
    EXPECT_EQ(crossConflictStalls(q), 0u);
}

TEST(CrossConflict, IdenticalStreamsFullyCollide)
{
    // Same stride, D == M (alias of 0): every i == j pair collides at
    // cost t_m.
    CrossConflictQuery q{1, 1, 8, 8, 32, 4};
    EXPECT_EQ(crossConflictStalls(q),
              crossConflictStallsBruteForce(q));
    EXPECT_GT(crossConflictStalls(q), 0u);
}

TEST(CrossConflict, UniformDAverageMatchesExactEnumeration)
{
    // Average the exact solver over all D in [1, M] and compare with
    // the closed form; by the one-D-per-pair argument they are equal
    // for every (s1, s2).
    const std::uint64_t m = 16, n = 24, tm = 5;
    for (std::uint64_t s1 : {1ull, 2ull, 3ull, 8ull, 16ull}) {
        for (std::uint64_t s2 : {1ull, 4ull, 7ull, 16ull}) {
            double total = 0.0;
            for (std::uint64_t d = 1; d <= m; ++d) {
                CrossConflictQuery q{s1, s2, d, m, n, tm};
                total += static_cast<double>(crossConflictStalls(q));
            }
            EXPECT_NEAR(total / static_cast<double>(m),
                        crossConflictStallsUniformD(m, n, tm), 1e-9)
                << "s1=" << s1 << " s2=" << s2;
        }
    }
}

TEST(CrossConflict, UniformDClosedFormValue)
{
    // Hand-computed: M=4, n=2, tm=2 -> pairs (d=0):2*2=4, (|d|=1):
    // 1*1*2=2 -> 6/4 = 1.5.
    EXPECT_DOUBLE_EQ(crossConflictStallsUniformD(4, 2, 2), 1.5);
}

/** The brute-force answer: enumerate one run, test the other. */
bool
meetBruteForce(std::uint64_t a, std::int64_t s, std::uint64_t n,
               std::uint64_t b, std::int64_t t, std::uint64_t m)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < n; ++i)
        seen.insert(a + static_cast<std::uint64_t>(s) * i);
    for (std::uint64_t k = 0; k < m; ++k)
        if (seen.count(b + static_cast<std::uint64_t>(t) * k))
            return true;
    return false;
}

/**
 * Check progressionMeets() against enumeration: its matches are every
 * index of A whose value B holds, ascending, each paired with an index
 * of B holding the same value.
 */
void
expectMeetsEnumerated(std::uint64_t a, std::int64_t s, std::uint64_t n,
                      std::uint64_t b, std::int64_t t, std::uint64_t m)
{
    const auto at = [](std::uint64_t base, std::int64_t stride,
                       std::uint64_t i) {
        return base + static_cast<std::uint64_t>(stride) * i;
    };
    std::set<std::uint64_t> in_b;
    for (std::uint64_t k = 0; k < m; ++k)
        in_b.insert(at(b, t, k));
    std::vector<std::uint64_t> want;
    for (std::uint64_t i = 0; i < n; ++i)
        if (in_b.count(at(a, s, i)))
            want.push_back(i);

    const ProgressionMeets got = progressionMeets(a, s, n, b, t, m);
    const std::string where = "a " + std::to_string(a) + " s " +
                              std::to_string(s) + " n " +
                              std::to_string(n) + " b " +
                              std::to_string(b) + " t " +
                              std::to_string(t) + " m " +
                              std::to_string(m);
    ASSERT_EQ(got.count, want.size()) << where;
    std::uint64_t i = got.i0;
    std::uint64_t k = got.k0;
    for (std::uint64_t u = 0; u < got.count; ++u, i += got.di, k += got.dk) {
        ASSERT_EQ(i, want[u]) << where << " match " << u;
        ASSERT_LT(k, m) << where << " match " << u;
        ASSERT_EQ(at(a, s, i), at(b, t, k)) << where << " match " << u;
    }
    EXPECT_EQ(progressionsMeet(a, s, n, b, t, m), !want.empty()) << where;
}

TEST(ProgressionMeets, EnumeratesEveryMatchInOrder)
{
    Rng rng(23);
    // Both stride signs, shared factors (gcd > 1), zero strides and
    // lengths, bases low and near 2^64; the extents fall disjoint,
    // touching and nested.
    constexpr std::uint64_t kTop = ~std::uint64_t{0};
    for (int trial = 0; trial < 20000; ++trial) {
        const bool high = trial % 2 == 1;
        const auto stride = [&rng] {
            const std::int64_t f =
                static_cast<std::int64_t>(1 + rng.next() % 4);
            const std::int64_t s =
                f * static_cast<std::int64_t>(rng.next() % 9);
            return rng.bernoulli(0.4) ? -s : s;
        };
        const std::int64_t s = stride();
        const std::int64_t t = stride();
        const std::uint64_t n = rng.next() % 40;
        const std::uint64_t m = rng.next() % 40;
        // 39 strides of at most 32 fit below 1400 either way.
        const auto base = [&rng, high](std::int64_t step) {
            const std::uint64_t off = 1400 + rng.next() % 200;
            const std::uint64_t b = high ? kTop - off : off;
            return step < 0 ? b : b - 1400 * high;
        };
        const std::uint64_t a = base(s);
        const std::uint64_t b = base(t);
        ASSERT_TRUE(spansWithoutWrap(a, s, n));
        ASSERT_TRUE(spansWithoutWrap(b, t, m));
        expectMeetsEnumerated(a, s, n, b, t, m);
    }
    // Nested and touching runs of one stride class, both orders.
    expectMeetsEnumerated(100, 3, 50, 130, 6, 10);
    expectMeetsEnumerated(130, -6, 10, 100, 3, 50);
    expectMeetsEnumerated(100, 4, 10, 136, -4, 10);
    // Strides near 2^62, whose products overflow 64 bits, at the top
    // of the address space.
    const std::int64_t big = (std::int64_t{1} << 62) - 1;
    expectMeetsEnumerated(0, big, 3, 0, 2 * big, 2);
    expectMeetsEnumerated(2 * big, -big, 3, 0, big, 3);
    expectMeetsEnumerated(kTop - 30, 3, 11, kTop, -5, 7);
}

TEST(ProgressionsMeet, MatchesBruteForce)
{
    Rng rng(11);
    // Small bases, and bases near 2^64 (runs placed so they do not
    // wrap), strides of both signs with shared factors, lengths from
    // zero up; extents disjoint, touching and nested.
    constexpr std::uint64_t kTop = ~std::uint64_t{0};
    for (int trial = 0; trial < 20000; ++trial) {
        const bool high = trial % 2 == 1;
        const auto stride = [&rng] {
            const std::int64_t f =
                static_cast<std::int64_t>(1 + rng.next() % 3);
            const std::int64_t s =
                f * static_cast<std::int64_t>(rng.next() % 9);
            return rng.bernoulli(0.4) ? -s : s;
        };
        const std::int64_t s = stride();
        const std::int64_t t = stride();
        const std::uint64_t n = rng.next() % 12;
        const std::uint64_t m = rng.next() % 12;
        // 24 strides of at most 24 fit below 600 in either direction.
        const auto base = [&rng, high](std::int64_t step) {
            const std::uint64_t off = 600 + rng.next() % 80;
            const std::uint64_t b = high ? kTop - off : off;
            return step < 0 ? b : b - 600 * high;
        };
        const std::uint64_t a = base(s);
        const std::uint64_t b = base(t);
        ASSERT_TRUE(spansWithoutWrap(a, s, n));
        ASSERT_TRUE(spansWithoutWrap(b, t, m));
        ASSERT_EQ(progressionsMeet(a, s, n, b, t, m),
                  meetBruteForce(a, s, n, b, t, m))
            << "a " << a << " s " << s << " n " << n << " b " << b
            << " t " << t << " m " << m;
    }
}

TEST(ProgressionsMeet, HugeStridesAndTheTopOfTheAddressSpace)
{
    constexpr std::uint64_t kTop = ~std::uint64_t{0};
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    // Two elements 2^63 apart, descending from the top.
    EXPECT_TRUE(progressionsMeet(kTop, kMin, 2, kTop >> 1, 0, 1));
    EXPECT_FALSE(progressionsMeet(kTop, kMin, 2, kTop - 1, 1, 1));
    // Strides near 2^62, where products overflow 64 bits.
    const std::int64_t big = (std::int64_t{1} << 62) - 1;
    EXPECT_TRUE(progressionsMeet(0, big, 3, 2 * big, 5, 1));
    EXPECT_TRUE(progressionsMeet(big * 2, -big, 3, big, 1, 1));
    EXPECT_FALSE(progressionsMeet(1, big, 3, 0, big, 3));
    // Touching extents: the last of one is the first of the other.
    EXPECT_TRUE(progressionsMeet(kTop - 12, 4, 4, kTop, 7, 1));
    EXPECT_FALSE(progressionsMeet(kTop - 13, 4, 4, kTop, -7, 2));
    // gcd 6: 599 is the last of one run and the first of the other;
    // 598 is off the common class.
    EXPECT_TRUE(progressionsMeet(5, 6, 100, 599, 12, 100));
    EXPECT_FALSE(progressionsMeet(5, 6, 100, 598, 12, 100));
    EXPECT_FALSE(progressionsMeet(0, 6, 100, 19, 12, 100));
}

} // namespace
} // namespace vcache
