#include "memory/interleaved.hh"

#include <algorithm>
#include <bit>

#include "numtheory/gcd.hh"
#include "numtheory/primality.hh"
#include "util/logging.hh"

namespace vcache
{

InterleavedMemory::InterleavedMemory(unsigned bank_bits,
                                     Cycles busy_time,
                                     BankMapping bank_mapping)
    : bits(bank_bits), m(std::uint64_t{1} << bank_bits), tm(busy_time),
      mapping(bank_mapping), busyUntil(m, 0)
{
    vc_assert(bank_bits <= 20, "more than 2^20 banks is surely a typo");
    vc_assert(busy_time >= 1, "bank busy time must be at least 1 cycle");
    if (mapping == BankMapping::PrimeModulo) {
        // The BSP organisation: the largest prime number of banks
        // that fits the 2^m bank budget.
        m = prevPrime(m);
        vc_assert(m >= 2, "prime bank placement needs >= 2 banks");
        busyUntil.assign(m, 0);
    }
}

InterleavedMemory::StreamResult
InterleavedMemory::streamAccess(std::span<const Addr> addrs, Cycles start)
{
    Cycles clock = start;
    Cycles stalls = 0;
    for (const Addr a : addrs) {
        const Cycles when = issue(a, clock);
        stalls += when - clock;
        clock = when + 1; // the pipelined bus accepts one issue/cycle
    }
    return {clock, stalls};
}

bool
InterleavedMemory::canIssueStripRun(Cycles gap, Addr base,
                                    std::int64_t stride,
                                    std::uint64_t length) const
{
    if (faults::kEnabled && faults::activeCheap())
        return false;
    if (mapping != BankMapping::LowOrder &&
        mapping != BankMapping::PrimeModulo)
        return false;
    // LowOrder is wrap-safe (2^b divides 2^64); the prime modulus
    // needs the true integer progression.
    if (mapping == BankMapping::PrimeModulo &&
        !spansWithoutWrap(base, stride, length))
        return false;
    // Every bank goes idle within t_m - 1 cycles of its strip's last
    // issue, so this start-up frees all banks at every strip start --
    // the closed form's base case.
    return gap + 1 >= tm;
}

void
InterleavedMemory::issueStripRun(Cycles gap, std::uint64_t mvl,
                                 Addr base, std::int64_t stride,
                                 std::uint64_t length, Cycles &clock,
                                 Cycles &stall)
{
    // The bank step per element and the bank period Q.  With 2^b
    // banks the gcd is the stride's lowest set bit (Q = 1 for a
    // stride that is a multiple of M), and Q is a power of two, so
    // dividing by it is a shift.
    std::uint64_t bank_step = 0;
    std::uint64_t q = 1;
    if (mapping == BankMapping::LowOrder) {
        bank_step = static_cast<std::uint64_t>(stride) & (m - 1);
        if (bank_step != 0)
            q = m >> std::countr_zero(bank_step);
    } else {
        bank_step = floorMod(stride, m);
        q = m / gcd(bank_step, m);
    }
    const bool pow2 = std::has_single_bit(q);
    const unsigned q_shift = static_cast<unsigned>(std::countr_zero(q));
    const auto divQ = [&](std::uint64_t i) {
        return pow2 ? i >> q_shift : i / q;
    };
    const auto modQ = [&](std::uint64_t i) {
        return pow2 ? i & (q - 1) : i % q;
    };

    const bool conflicted = tm > q;
    // Cycle offset of within-strip element i from its strip's start.
    const auto issueOffset = [&](std::uint64_t i) -> Cycles {
        return conflicted ? modQ(i) + divQ(i) * tm : i;
    };

    const std::uint64_t strips = (length + mvl - 1) / mvl;
    const std::uint64_t last_count = length - (strips - 1) * mvl;
    // All strips but the last are full, so strip starts form an
    // arithmetic progression.
    const Cycles full_span = gap + issueOffset(mvl - 1) + 1;
    const Cycles first_start = clock + gap;
    const Cycles last_start = first_start + (strips - 1) * full_span;

    if (conflicted) {
        const Cycles per_revisit = tm - q;
        stall += (strips - 1) * divQ(mvl - 1) * per_revisit +
                 divQ(last_count - 1) * per_revisit;
    }

    // Bank end state: the last min(Q, length) elements touch distinct
    // banks, one per residue class of the element index, and each is
    // its class's highest-index element, so it sets its bank's busy
    // horizon.  Walk them in index order by additions: the bank steps
    // by the stride mod M, the within-strip offset by one cycle (or,
    // conflicted, t_m - Q + 1 cycles to the next bank revisit), and
    // the strip start by a full strip's span.  (The bank sum cannot
    // wrap on PrimeModulo: canIssueStripRun() refuses a wrapping run.)
    const std::uint64_t touched = q < length ? q : length;
    std::uint64_t k = length - touched;
    std::uint64_t bank =
        bankOf(base + static_cast<std::uint64_t>(stride) * k);
    std::uint64_t within = k % mvl;
    std::uint64_t residue = modQ(within);
    Cycles start = first_start + (k / mvl) * full_span;
    Cycles offset = issueOffset(within);
    for (std::uint64_t n = 0; n < touched; ++n) {
        busyUntil[bank] = start + offset + tm;
        bank += bank_step;
        if (bank >= m)
            bank -= m;
        if (++within == mvl) {
            within = 0;
            residue = 0;
            offset = 0;
            start += full_span;
        } else if (conflicted && ++residue == q) {
            residue = 0;
            offset += tm - q + 1;
        } else {
            ++offset;
        }
    }

    clock = last_start + issueOffset(last_count - 1) + 1;
}

void
InterleavedMemory::reset()
{
    std::fill(busyUntil.begin(), busyUntil.end(), 0);
}

} // namespace vcache
