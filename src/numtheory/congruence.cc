#include "numtheory/congruence.hh"

#include <cstdlib>

#include "numtheory/gcd.hh"
#include "util/logging.hh"

namespace vcache
{

std::vector<std::uint64_t>
solveLinearCongruence(std::uint64_t a, std::uint64_t b, std::uint64_t m)
{
    vc_assert(m >= 1, "congruence modulus must be positive");
    a %= m;
    b %= m;

    const std::uint64_t g = gcd(a, m);
    std::vector<std::uint64_t> xs;
    if (g == 0) {
        // a == 0 (mod m): either every x works (b == 0) or none does.
        if (b == 0)
            for (std::uint64_t x = 0; x < m; ++x)
                xs.push_back(x);
        return xs;
    }
    if (b % g != 0)
        return xs;

    // Reduce to (a/g) x == (b/g) (mod m/g) with a/g invertible.
    const std::uint64_t m_r = m / g;
    const std::uint64_t a_r = a / g;
    const std::uint64_t b_r = (b / g) % m_r;
    const std::uint64_t x0 =
        m_r == 1 ? 0 : (modInverse(a_r, m_r) * b_r) % m_r;

    xs.reserve(g);
    for (std::uint64_t k = 0; k < g; ++k)
        xs.push_back(x0 + k * m_r);
    return xs;
}

namespace
{

using U128 = unsigned __int128;

/** A run as an ascending lattice: lo, lo + step, ..., hi. */
struct Ascending
{
    U128 lo;
    U128 step;
    U128 hi;
};

Ascending
ascending(std::uint64_t base, std::int64_t stride, std::uint64_t length)
{
    if (stride == 0 || length == 1)
        return {base, 1, base};
    const std::uint64_t step =
        stride < 0 ? 0 - static_cast<std::uint64_t>(stride)
                   : static_cast<std::uint64_t>(stride);
    const U128 span = U128{step} * (length - 1);
    if (stride > 0)
        return {base, step, base + span};
    return {base - span, step, base};
}

/** x with a*x == 1 (mod m), for gcd(a, m) == 1 and m >= 2. */
U128
inverseMod(U128 a, U128 m)
{
    // Extended Euclid on the remainders, tracking only a's
    // coefficient; the coefficients stay below m in magnitude.
    __int128 r0 = static_cast<__int128>(m);
    __int128 r1 = static_cast<__int128>(a % m);
    __int128 x0 = 0;
    __int128 x1 = 1;
    while (r1 != 0) {
        const __int128 q = r0 / r1;
        const __int128 r = r0 - q * r1;
        r0 = r1;
        r1 = r;
        const __int128 x = x0 - q * x1;
        x0 = x1;
        x1 = x;
    }
    const __int128 sm = static_cast<__int128>(m);
    return static_cast<U128>(((x0 % sm) + sm) % sm);
}

} // namespace

ProgressionMeets
progressionMeets(std::uint64_t a, std::int64_t s, std::uint64_t n,
                 std::uint64_t b, std::int64_t t, std::uint64_t m)
{
    if (n == 0 || m == 0)
        return {};
    const Ascending p = ascending(a, s, n);
    const Ascending q = ascending(b, t, m);
    const U128 lo = p.lo > q.lo ? p.lo : q.lo;
    const U128 hi = p.hi < q.hi ? p.hi : q.hi;
    if (lo > hi)
        return {};
    // A value's index in each run, from its ascending rank.
    const auto index_a = [&](U128 x) {
        const auto u = static_cast<std::uint64_t>((x - p.lo) / p.step);
        return s > 0 ? u : n - 1 - u;
    };
    const auto index_b = [&](U128 x) {
        const auto u = static_cast<std::uint64_t>((x - q.lo) / q.step);
        return t > 0 ? u : m - 1 - u;
    };
    const bool single_a = p.lo == p.hi;
    if (single_a || q.lo == q.hi) {
        // One value on one side: it lies in [lo, hi], so it matches
        // iff it is on the other run's lattice.
        const U128 x = single_a ? p.lo : q.lo;
        const Ascending &other = single_a ? q : p;
        if ((x - other.lo) % other.step != 0)
            return {};
        if (single_a)
            return {.count = n, .i0 = 0, .di = 1, .k0 = index_b(x)};
        return {.count = 1, .i0 = index_a(x), .di = 1, .k0 = 0};
    }
    // x = p.lo + p.step*u with p.step*u == q.lo - p.lo (mod q.step).
    const U128 g = gcd(static_cast<std::uint64_t>(p.step),
                       static_cast<std::uint64_t>(q.step));
    const bool forward = q.lo >= p.lo;
    const U128 dist = forward ? q.lo - p.lo : p.lo - q.lo;
    if (dist % g != 0)
        return {};
    const U128 mod = q.step / g;
    U128 u = 0;
    if (mod > 1) {
        U128 rhs = (dist / g) % mod;
        if (!forward && rhs != 0)
            rhs = mod - rhs;
        u = rhs * inverseMod(p.step / g % mod, mod) % mod;
    }
    // Steps are at most 2^63, so x0 and the period stay below 2^127.
    const U128 x0 = p.lo + p.step * u;
    const U128 period = p.step * mod;
    const U128 first =
        x0 >= lo ? lo + (x0 - lo) % period
                 : lo + (period - (lo - x0) % period) % period;
    if (first > hi)
        return {};
    ProgressionMeets r;
    r.count = static_cast<std::uint64_t>((hi - first) / period) + 1;
    // A's indices ascend with the values when s > 0, so the first
    // match is the lowest common value, else the highest; B's index
    // moves the same way iff t has s's sign.
    const U128 start =
        s > 0 ? first : first + period * (r.count - 1);
    r.i0 = index_a(start);
    r.di = static_cast<std::uint64_t>(mod);
    r.k0 = index_b(start);
    const auto dk = static_cast<std::uint64_t>(p.step / g);
    r.dk = (s > 0) == (t > 0) ? dk : 0 - dk;
    return r;
}

std::uint64_t
crossConflictStalls(const CrossConflictQuery &q)
{
    vc_assert(q.banks >= 1, "need at least one bank");
    const std::uint64_t m = q.banks;
    std::uint64_t stalls = 0;

    // For each element j of the second stream, the colliding elements i
    // of the first stream satisfy s1*i == s2*j + D (mod M): an
    // arithmetic progression with period M / gcd(s1, M).
    const std::uint64_t g = gcd(q.s1 % m, m);
    const std::uint64_t period = g == 0 ? 1 : m / g;

    for (std::uint64_t j = 0; j < q.elements; ++j) {
        const std::uint64_t rhs = (q.s2 % m * (j % m) + q.startDistance) % m;
        const auto sols = solveLinearCongruence(q.s1, rhs, m);
        if (sols.empty())
            continue;
        // Enumerate i = x0 + k*period (all solution classes share the
        // same period; iterate each base solution).
        for (std::uint64_t base : sols) {
            if (base >= period)
                continue; // progressions repeat with period `period`
            for (std::uint64_t i = base; i < q.elements; i += period) {
                const auto d = i > j ? i - j : j - i;
                if (d < q.busyTime)
                    stalls += q.busyTime - d;
            }
        }
    }
    return stalls;
}

std::uint64_t
crossConflictStallsBruteForce(const CrossConflictQuery &q)
{
    const std::uint64_t m = q.banks;
    std::uint64_t stalls = 0;
    for (std::uint64_t i = 0; i < q.elements; ++i) {
        for (std::uint64_t j = 0; j < q.elements; ++j) {
            const std::uint64_t lhs = q.s1 % m * (i % m) % m;
            const std::uint64_t rhs =
                (q.s2 % m * (j % m) + q.startDistance) % m;
            if (lhs != rhs)
                continue;
            const auto d = i > j ? i - j : j - i;
            if (d < q.busyTime)
                stalls += q.busyTime - d;
        }
    }
    return stalls;
}

double
crossConflictStallsUniformD(std::uint64_t banks, std::uint64_t elements,
                            std::uint64_t busyTime)
{
    vc_assert(banks >= 1, "need at least one bank");
    // Each (i, j) pair collides for exactly one D residue, so the
    // expectation over uniform D counts every nearby pair with weight
    // 1/M.
    double sum = 0.0;
    const auto n = static_cast<std::int64_t>(elements);
    const auto tm = static_cast<std::int64_t>(busyTime);
    for (std::int64_t d = -(tm - 1); d <= tm - 1; ++d) {
        const std::int64_t pairs = n - std::llabs(d);
        if (pairs <= 0)
            continue;
        sum += static_cast<double>((tm - std::llabs(d)) * pairs);
    }
    return sum / static_cast<double>(banks);
}

} // namespace vcache
