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
 * forms answer.  Past those come the shapes of its first-touch
 * classification (appendClassifierShapes()).
 */

#ifndef VCACHE_TESTS_SIM_FUZZ_TRACE_HH
#define VCACHE_TESTS_SIM_FUZZ_TRACE_HH

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

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

/**
 * The shapes the CC walker's first-touch classification must get
 * right, appended past every op above so those keep their draws:
 * overlapping stride-1 streams; second streams that read the first
 * stream's lines before it does and after it does, and that read an
 * earlier second stream's lines; more fresh runs than the walker keeps
 * records for, then re-reads of the oldest; ops shorter than the
 * classification threshold (hashed); and a long op over a line such a
 * short op hashed.
 */
inline void
appendClassifierShapes(Rng &rng, Trace &trace, Addr frontier)
{
    const auto op_of = [](VectorRef x, std::optional<VectorRef> y) {
        VectorOp op;
        op.first = x;
        op.second = y;
        return op;
    };
    // A region of its own, so the shapes start from fresh lines.
    const Addr region = frontier + 4096;
    // Overlapping stride-1 streams, the second ahead of the first or
    // behind it: x_i == y_j with i > j and with i <= j; and one whose
    // streams meet at one index (x_0 == y_0, x read first).
    trace.push_back(op_of(VectorRef{region + 1024, 1, 100},
                          VectorRef{region + 1024, 3, 40}));
    for (int n = 0; n < 2; ++n) {
        const std::uint64_t len = 64 + rng.next() % 200;
        const auto d = static_cast<std::int64_t>(rng.next() % len) -
                       static_cast<std::int64_t>(len / 2);
        trace.push_back(op_of(
            VectorRef{region, 1, len},
            VectorRef{static_cast<Addr>(static_cast<std::int64_t>(region) +
                                        d),
                      1, 1 + rng.next() % len}));
    }
    // Second streams over a strided first stream's lines: ahead (read
    // before the first stream gets there), behind (read after),
    // reversed (both), and over the previous op's second stream.
    const std::int64_t s = 1 + static_cast<std::int64_t>(rng.next() % 5);
    const std::uint64_t len = 80 + rng.next() % 150;
    const VectorRef x{region + 2048, s, len};
    const std::uint64_t lead = 1 + rng.next() % (len / 2);
    const VectorRef ahead{x.element(lead), s, len - lead};
    const VectorRef behind{x.base - static_cast<std::uint64_t>(s) * lead, s,
                           len};
    const VectorRef reversed{x.element(len - 1), -s, len};
    trace.push_back(op_of(x, ahead));
    trace.push_back(op_of(VectorRef{x.base + 7, s, len}, behind));
    trace.push_back(op_of(VectorRef{x.base + 11, 2 * s, len}, reversed));
    trace.push_back(op_of(VectorRef{x.base + 13, 3, len},
                          VectorRef{reversed.element(lead), -2 * s,
                                    len / 2}));
    // More fresh runs than the walker keeps records for: each op
    // leaves two.
    Addr fresh = region + 16384;
    std::vector<VectorOp> runs;
    for (int n = 0; n < 12; ++n) {
        const std::uint64_t t = 1 + rng.next() % 7;
        const std::uint64_t l = 64 + rng.next() % 64;
        const auto stride = static_cast<std::int64_t>(t);
        const VectorRef a{fresh, stride, l};
        const VectorRef b{fresh + t * l + 1, stride + 1, l / 2};
        fresh += (t + 1) * l + 64;
        runs.push_back(op_of(a, b));
        trace.push_back(runs.back());
    }
    // The oldest again, now hashed, and a long op across several.
    trace.push_back(runs[0]);
    trace.push_back(op_of(VectorRef{runs[1].first.base, 1, 400}, {}));
    // Ops below the classification threshold, single and double,
    // hashing lines inside later long ops' reach.
    for (int n = 0; n < 6; ++n) {
        const Addr at = region + 2048 + rng.next() % 600;
        const std::uint64_t l = 1 + rng.next() % 20;
        std::optional<VectorRef> y;
        if (n % 2 == 1)
            y = VectorRef{at + 300 + rng.next() % 50, 1, l};
        trace.push_back(op_of(VectorRef{at, s, l}, y));
    }
    trace.push_back(op_of(VectorRef{region + 1900, 2, 300},
                          VectorRef{region + 2200, 1, 100}));
    trace.push_back(op_of(x, reversed));
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
    appendClassifierShapes(rng, trace, frontier);
    return trace;
}

} // namespace vcache

#endif // VCACHE_TESTS_SIM_FUZZ_TRACE_HH
