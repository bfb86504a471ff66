/**
 * @file
 * Low-order-bit interleaved memory (Figures 2 and 3).
 *
 * M = 2^m banks, each busy for t_m cycles per access; word w lives in
 * bank w mod M.  A pipelined vector access issues one request per
 * cycle; a request to a busy bank stalls the whole stream (in-order
 * issue), which is exactly the conflict model behind the paper's
 * I_s^M / I_c^M derivations.
 */

#ifndef VCACHE_MEMORY_INTERLEAVED_HH
#define VCACHE_MEMORY_INTERLEAVED_HH

#include <algorithm>
#include <span>
#include <vector>

#include "util/faultinject.hh"
#include "util/types.hh"

namespace vcache
{

/**
 * Word-to-bank placement function.
 *
 * LowOrder is the paper's baseline.  Skewed implements a simple
 * row-rotation scheme (bank = (w + floor(w / M)) mod M): it fixes the
 * power-of-two strides but serialises near-M strides.  XorHash folds
 * the address's m-bit digits with XOR, the pseudo-random flavour of
 * the conflict-reducing storage schemes (Harper [17], Raghavan-Hayes
 * [19]).  PrimeModulo drops to the largest prime below 2^m banks --
 * the Budnik-Kuck / Burroughs-BSP organisation ([13], [14]) from
 * which the prime-mapped *cache* idea descends: every stride that is
 * not a multiple of the (prime) bank count visits every bank.
 */
enum class BankMapping
{
    LowOrder,
    Skewed,
    XorHash,
    PrimeModulo,
};

/** Interleaved memory bank array with per-bank busy tracking. */
class InterleavedMemory
{
  public:
    /**
     * @param bank_bits m: number of banks is 2^m
     * @param busy_time t_m: cycles one bank stays busy per access
     * @param mapping word-to-bank placement
     */
    InterleavedMemory(unsigned bank_bits, Cycles busy_time,
                      BankMapping mapping = BankMapping::LowOrder);

    /** Bank holding word address w (inlined into the CC miss path). */
    VCACHE_ALWAYS_INLINE std::uint64_t
    bankOf(Addr word_addr) const
    {
        switch (mapping) {
          case BankMapping::Skewed:
            return (word_addr + (word_addr >> bits)) & (m - 1);
          case BankMapping::XorHash: {
            std::uint64_t h = 0;
            for (Addr w = word_addr; w != 0; w >>= bits)
                h ^= w & (m - 1);
            return h;
          }
          case BankMapping::PrimeModulo:
            return word_addr % m; // m is prime here
          case BankMapping::LowOrder:
            break;
        }
        return word_addr & (m - 1);
    }

    /**
     * Issue one request to `bank` no earlier than `earliest`; the
     * request waits until the bank is free.  The one bank-issue
     * primitive: every issue -- by address, observed, or over a bank
     * a CC walker lane already mapped -- comes through here, so the
     * busy-horizon update and the memory.bank.issue fault site exist
     * once.  Inline: this is the per-miss step of the simulator hot
     * path.
     *
     * @return the cycle at which the request actually issues
     */
    Cycles
    issueAtBank(std::uint64_t bank, Cycles earliest)
    {
        VCACHE_FAULT_POINT("memory.bank.issue");
        const Cycles when = std::max(earliest, busyUntil[bank]);
        busyUntil[bank] = when + tm;
        return when;
    }

    /** issueAtBank() on word_addr's bank. */
    Cycles
    issue(Addr word_addr, Cycles earliest)
    {
        return issueAtBank(bankOf(word_addr), earliest);
    }

    /**
     * issue() with an Observer policy hook: reports the request's bank
     * and how long it waited for that bank (the conflict visibility
     * the aggregate stall counters average away).  With a disabled
     * observer (Observer::kEnabled == false) this compiles to exactly
     * issue().
     */
    template <typename Observer>
    Cycles
    issueObserved(Addr word_addr, Cycles earliest, Observer &obs)
    {
        const std::uint64_t bank = bankOf(word_addr);
        const Cycles when = issueAtBank(bank, earliest);
        if constexpr (Observer::kEnabled)
            obs.onBankIssue(earliest, bank, when - earliest);
        return when;
    }

    /**
     * Whether issueStripRun() is exact for the run base + i*stride
     * (i < length) strip-mined behind `gap` cycles of start-up per
     * strip: a residue-periodic mapping (LowOrder always, PrimeModulo
     * for a run that does not wrap), a start-up that frees every bank
     * before the next strip starts (gap + 1 >= t_m), and no armed
     * fault plan (the closed form never visits the memory.bank.issue
     * site).  Both machines ask this one predicate: the MM machine for
     * a single-stream run, the CC walker for a cold pass.
     */
    bool canIssueStripRun(Cycles gap, Addr base, std::int64_t stride,
                          std::uint64_t length) const;

    /**
     * Issue a non-empty strip-mined run in closed form, exactly as
     * issue() element by element would: each strip of up to `mvl`
     * elements starts `gap` cycles after the previous one ends (the
     * first at clock + gap) and issues one element per cycle, stalling
     * in order on a busy bank.  Advances `clock` past the last issue,
     * adds the bank waits to `stall`, and leaves every bank's busy
     * horizon where element-wise issue would.
     *
     * The bank sequence (base + i*stride) mod M repeats every
     * Q = M / gcd(stride mod M, M) elements, so within a strip element
     * i issues at (i mod Q) + floor(i / Q) * t_m when t_m > Q (each
     * bank revisit waits out the previous access) and at i otherwise:
     * O(1) for the clock and stall, O(min(Q, length)) additions for
     * the horizons (the last min(Q, length) elements, one per bank,
     * stepped in index order).  On LowOrder the per-call setup divides
     * nothing either: Q = M >> ctz(stride mod M), and dividing by Q is
     * a shift.
     *
     * Requires canIssueStripRun(gap, ...) and every bank free by
     * clock + gap (true whenever each earlier issue at cycle w was
     * followed by clock > w).
     */
    void issueStripRun(Cycles gap, std::uint64_t mvl, Addr base,
                       std::int64_t stride, std::uint64_t length,
                       Cycles &clock, Cycles &stall);

    /** Outcome of streaming a whole address sequence. */
    struct StreamResult
    {
        /** Cycle after the last issue (issue-limited, not data return). */
        Cycles finishCycle;
        /** Cycles lost waiting for busy banks. */
        Cycles stallCycles;
    };

    /**
     * Stream a sequence at one request per cycle starting at cycle
     * `start`, stalling in-order on busy banks.
     */
    StreamResult streamAccess(std::span<const Addr> addrs,
                              Cycles start = 0);

    /** Forget all bank state. */
    void reset();

    std::uint64_t banks() const { return m; }
    Cycles busyTime() const { return tm; }
    BankMapping bankMapping() const { return mapping; }

  private:
    unsigned bits;
    std::uint64_t m;
    Cycles tm;
    BankMapping mapping;
    std::vector<Cycles> busyUntil;
};

} // namespace vcache

#endif // VCACHE_MEMORY_INTERLEAVED_HH
