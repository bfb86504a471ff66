#include "memory/interleaved.hh"

#include <algorithm>

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
    const std::uint64_t q = m / gcd(floorMod(stride, m), m);
    const bool conflicted = tm > q;
    // Cycle offset of within-strip element i from its strip's start.
    const auto issueOffset = [&](std::uint64_t i) -> Cycles {
        return conflicted ? (i % q) + (i / q) * tm : i;
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
        stall += (strips - 1) * ((mvl - 1) / q) * per_revisit +
                 ((last_count - 1) / q) * per_revisit;
    }

    // Bank end state: the run touches min(q, length) distinct banks,
    // one per residue class of the element index; each bank's busy
    // horizon comes from its class's highest-index element.
    const std::uint64_t touched = q < length ? q : length;
    for (std::uint64_t r = 0; r < touched; ++r) {
        const std::uint64_t k = r + ((length - 1 - r) / q) * q;
        const Cycles start = first_start + (k / mvl) * full_span;
        const Addr addr =
            base + static_cast<std::uint64_t>(stride) * k;
        busyUntil[bankOf(addr)] = start + issueOffset(k % mvl) + tm;
    }

    clock = last_start + issueOffset(last_count - 1) + 1;
}

void
InterleavedMemory::reset()
{
    std::fill(busyUntil.begin(), busyUntil.end(), 0);
}

} // namespace vcache
