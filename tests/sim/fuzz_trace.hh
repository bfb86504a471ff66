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
 * (unless its stride is zero or below the line size); some of these
 * get a second stream of at most one strip, fresh or reading the
 * first stream's tail, so the cold tail both fires and refuses.  One
 * op in five repeats the previous op's first stream with a second
 * stream, often one reading that stream's own lines (canonical ones,
 * and on the direct cache, non-canonical ones where the frame period
 * is below the length), and a double-stream op is sometimes followed
 * by its first stream alone: the shapes the walker's canonical closed
 * forms answer.
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

/** A second stream reading the lines of `first` from element `from`. */
inline VectorRef
readingRef(Rng &rng, const VectorRef &first, std::uint64_t from)
{
    VectorRef ref;
    ref.base = first.element(from);
    ref.stride = first.stride * static_cast<std::int64_t>(1 + rng.next() % 2);
    ref.length = 1 + rng.next() % first.length;
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
    const auto fresh = [&](VectorRef &ref) {
        const std::uint64_t span =
            static_cast<std::uint64_t>(std::abs(ref.stride)) *
            (ref.length - 1);
        ref.base = frontier + rng.next() % 64 + (ref.stride < 0 ? span : 0);
        frontier += span + 128;
    };
    for (std::uint64_t n = 0; n < ops; ++n) {
        // Lengths straddle the 64-element strip edges.
        static constexpr std::uint64_t kLengths[] = {1,  7,   63,  64,
                                                     65, 128, 200, 300};
        VectorOp op;
        op.first = randomRef(rng, kLengths[rng.next() % 8]);
        const std::uint64_t shape = rng.next() % 20;
        if (shape < 5) {
            // A cold pass candidate: the whole run lies past the
            // frontier, whichever way it walks.  Some get a second
            // stream of at most one strip, so a cold tail is possible:
            // fresh (the tail stays cold), or reading the first
            // stream's own tail lines.
            fresh(op.first);
            if (shape < 2 && op.first.length > 64) {
                op.second = randomRef(rng, 1 + rng.next() % 64);
                if (shape == 0)
                    fresh(*op.second);
                else
                    op.second->base = op.first.element(
                        64 + rng.next() % (op.first.length - 64));
            }
            if (rng.bernoulli(0.3))
                op.store = randomRef(rng, op.first.length);
            const std::uint64_t repeats = 1 + rng.next() % 2;
            for (std::uint64_t r = 0; r < repeats; ++r)
                trace.push_back(op);
            continue;
        }
        if (shape < 9 && !trace.empty()) {
            // The previous op's first stream again, now with a second
            // stream (the walker answers its tail from the state the
            // previous op left); half of them read the first stream's
            // own lines, canonical or not.
            op.first = trace.back().first;
            op.second = shape < 7 ? readingRef(rng, op.first,
                                               rng.next() %
                                                   op.first.length)
                                  : randomRef(rng, 1 + rng.next() %
                                                       op.first.length);
        } else if (rng.bernoulli(0.4)) {
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
        // A re-walk of the first stream alone after a double-stream op.
        if (op.second && rng.bernoulli(0.3))
            trace.push_back(VectorOp{op.first, {}, {}});
    }
    return trace;
}

} // namespace vcache

#endif // VCACHE_TESTS_SIM_FUZZ_TRACE_HH
