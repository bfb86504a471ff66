/**
 * @file
 * Linear-congruence solving and the paper's cross-interference count.
 *
 * Section 3.2 computes memory stalls caused by two concurrent vector
 * streams: whenever s1*i == s2*j + D (mod M) has a solution with
 * |i - j| < t_m, the streams collide in a bank and the pipeline stalls
 * t_m - |i - j| cycles.  The paper solves this congruence numerically;
 * we provide an extended-gcd solver plus the closed form obtained by
 * averaging over a uniformly distributed starting distance D.
 */

#ifndef VCACHE_NUMTHEORY_CONGRUENCE_HH
#define VCACHE_NUMTHEORY_CONGRUENCE_HH

#include <cstdint>
#include <vector>

namespace vcache
{

/**
 * All x in [0, m) with a*x == b (mod m), in increasing order.
 *
 * There are gcd(a, m) solutions when gcd(a, m) divides b, none
 * otherwise.
 */
std::vector<std::uint64_t> solveLinearCongruence(std::uint64_t a,
                                                 std::uint64_t b,
                                                 std::uint64_t m);

/**
 * Where the runs A = a + i*s (0 <= i < n) and B = b + k*t (0 <= k < m)
 * share values, taking both as exact integers: the caller has checked
 * that neither wraps mod 2^64 (spansWithoutWrap()).  Strides may be
 * zero or negative.  The u-th match (u < count, A's index ascending)
 * is A's element i0 + u*di, which equals B's element k0 + u*dk (mod
 * 2^64: dk is negative when the strides' signs differ).  A common
 * value x solves x == a (mod |s|) and x == b (mod |t|), so one exists
 * iff gcd(|s|, |t|) divides b - a; the solutions then form one class
 * mod lcm(|s|, |t|), found with a modular inverse, and the matches are
 * that class's members in the overlap of the runs' extents.  A run of
 * one value (stride zero or length one) matches B at all or none of
 * its indices, with dk = 0; B of one value matches at most once.
 * O(log) time: the caller steps along the matches by additions.
 */
struct ProgressionMeets
{
    std::uint64_t count = 0;
    std::uint64_t i0 = 0;
    std::uint64_t di = 0;
    std::uint64_t k0 = 0;
    std::uint64_t dk = 0;
};

ProgressionMeets progressionMeets(std::uint64_t a, std::int64_t s,
                                  std::uint64_t n, std::uint64_t b,
                                  std::int64_t t, std::uint64_t m);

/** Whether the runs of progressionMeets() share a value. */
inline bool
progressionsMeet(std::uint64_t a, std::int64_t s, std::uint64_t n,
                 std::uint64_t b, std::int64_t t, std::uint64_t m)
{
    return progressionMeets(a, s, n, b, t, m).count != 0;
}

/** Parameters of one cross-interference evaluation. */
struct CrossConflictQuery
{
    /** Stride of the first vector stream. */
    std::uint64_t s1;
    /** Stride of the second vector stream. */
    std::uint64_t s2;
    /** Bank distance between the two starting addresses. */
    std::uint64_t startDistance;
    /** Number of memory banks (any modulus >= 1). */
    std::uint64_t banks;
    /** Elements per stream (the paper uses MVL). */
    std::uint64_t elements;
    /** Bank busy time t_m in cycles. */
    std::uint64_t busyTime;
};

/**
 * Total stall cycles sum(t_m - |i - j|) over all solution pairs of
 * s1*i == s2*j + D (mod M) with i, j in [0, elements) and
 * |i - j| < t_m, following the paper's accumulation rule.
 *
 * Solved per-j with the arithmetic-progression structure of the
 * solutions, so cost is O(elements * elements/ (M/g)) not O(elements^2).
 */
std::uint64_t crossConflictStalls(const CrossConflictQuery &q);

/** Brute-force reference for crossConflictStalls (used by tests). */
std::uint64_t crossConflictStallsBruteForce(const CrossConflictQuery &q);

/**
 * Expected stalls when D is uniform over [1, M].
 *
 * Every (i, j) pair determines exactly one D (mod M), so the average
 * collapses to (1/M) * sum_{|d| < t_m} (t_m - |d|) * (elements - |d|),
 * independent of s1 and s2.  Tested against the exact solver.
 */
double crossConflictStallsUniformD(std::uint64_t banks,
                                   std::uint64_t elements,
                                   std::uint64_t busyTime);

} // namespace vcache

#endif // VCACHE_NUMTHEORY_CONGRUENCE_HH
