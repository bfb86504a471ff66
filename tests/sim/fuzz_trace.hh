/**
 * @file
 * The seeded random op streams the differential fuzz suites
 * (cc_fuzz_test, mm_fuzz_test) replay: single and double streams,
 * second streams shorter (and sometimes longer) than the first,
 * lengths straddling the 64-element strip edges, every op repeated
 * one to four times, and strides that are powers of two, multiples of
 * a 128-word cache (and so of every power-of-two bank count up to
 * 128), odd, zero and negative.  About one op in four is a cold pass
 * candidate: a single stream over a fresh region past every line
 * touched so far, so the CC walker's closed-form cold pass takes it
 * (unless its stride is zero or below the line size).
 */

#ifndef VCACHE_TESTS_SIM_FUZZ_TRACE_HH
#define VCACHE_TESTS_SIM_FUZZ_TRACE_HH

#include <cstdint>
#include <cstdlib>

#include "trace/access.hh"
#include "util/rng.hh"

namespace vcache
{

/** Words in the fuzzed caches; a stride class is its multiples. */
inline constexpr std::int64_t kFuzzCacheWords = 128;

/** The seeds every fuzz suite replays. */
inline constexpr std::uint64_t kFuzzSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

inline std::int64_t
randomStride(Rng &rng)
{
    std::int64_t s = 0;
    switch (rng.next() % 4) {
      case 0:
        s = std::int64_t{1} << (rng.next() % 9); // 1 .. 256
        break;
      case 1:
        s = kFuzzCacheWords *
            static_cast<std::int64_t>(1 + rng.next() % 3);
        break;
      case 2:
        s = static_cast<std::int64_t>(rng.next() % 40); // 0 and odd
        break;
      default:
        s = static_cast<std::int64_t>(1 + rng.next() % 200);
        break;
    }
    return rng.bernoulli(0.3) ? -s : s;
}

inline VectorRef
randomRef(Rng &rng, std::uint64_t length)
{
    VectorRef ref;
    ref.stride = randomStride(rng);
    // A few shared bases make ops collide and reuse lines; all sit
    // high enough that negative strides never wrap below zero.
    static constexpr Addr kBases[] = {1 << 20, (1 << 20) + 64,
                                      (1 << 20) + 4096, 3 << 20};
    ref.base = kBases[rng.next() % 4] + rng.next() % 256;
    ref.length = length;
    return ref;
}

/** One seeded op stream (see the file comment). */
inline Trace
fuzzTrace(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace;
    const std::uint64_t ops = 24 + rng.next() % 16;
    // Fresh regions start above everything the shared bases reach
    // (3 << 20, plus at most 317 elements of a stride up to 384
    // words).
    Addr frontier = Addr{4} << 20;
    for (std::uint64_t n = 0; n < ops; ++n) {
        // Lengths straddle the 64-element strip edges.
        static constexpr std::uint64_t kLengths[] = {1,  7,   63,  64,
                                                     65, 128, 200, 300};
        VectorOp op;
        op.first = randomRef(rng, kLengths[rng.next() % 8]);
        if (rng.bernoulli(0.25)) {
            // A cold pass candidate: the whole run lies past the
            // frontier, whichever way it walks.
            VectorRef &ref = op.first;
            const std::uint64_t span =
                static_cast<std::uint64_t>(std::abs(ref.stride)) *
                (ref.length - 1);
            ref.base = frontier + rng.next() % 64 +
                       (ref.stride < 0 ? span : 0);
            frontier += span + 128;
            if (rng.bernoulli(0.3))
                op.store = randomRef(rng, ref.length);
            const std::uint64_t repeats = 1 + rng.next() % 2;
            for (std::uint64_t r = 0; r < repeats; ++r)
                trace.push_back(op);
            continue;
        }
        if (rng.bernoulli(0.4)) {
            const std::uint64_t len = op.first.length;
            const std::uint64_t second =
                rng.bernoulli(0.2) ? len + 17
                                   : 1 + rng.next() % len; // shorter
            op.second = randomRef(rng, second);
        }
        if (rng.bernoulli(0.3))
            op.store = randomRef(rng, op.first.length);
        const std::uint64_t repeats = 1 + rng.next() % 4;
        for (std::uint64_t r = 0; r < repeats; ++r)
            trace.push_back(op);
    }
    return trace;
}

} // namespace vcache

#endif // VCACHE_TESTS_SIM_FUZZ_TRACE_HH
