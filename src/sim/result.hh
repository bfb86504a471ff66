/**
 * @file
 * Result of one trace-driven simulation run.
 */

#ifndef VCACHE_SIM_RESULT_HH
#define VCACHE_SIM_RESULT_HH

#include <cstdint>

#include "util/types.hh"

namespace vcache
{

/** Counters produced by the MM and CC trace-driven simulators. */
struct SimResult
{
    /** Total simulated cycles. */
    Cycles totalCycles = 0;
    /** Cycles lost to busy banks (MM) or non-pipelined misses (CC). */
    Cycles stallCycles = 0;
    /** Result elements produced (first-stream loads). */
    std::uint64_t results = 0;
    /** Cache hits (CC only). */
    std::uint64_t hits = 0;
    /** Cache misses (CC only). */
    std::uint64_t misses = 0;
    /** Misses that were first touches (pipelined initial loads). */
    std::uint64_t compulsoryMisses = 0;

    /** The paper's figure-of-merit. */
    double cyclesPerResult() const;

    /** Miss ratio over all cache accesses (0 for the MM machine). */
    double missRatio() const;
};

/**
 * Which path of the CC walker (sim/cc_walker.hh) answered each vector
 * op of a walk, and what its gang probes credited in bulk.  Every op
 * lands in exactly one of the five op counters; the tail and
 * classified counters count within the walked ones.  Plain counters, not
 * Observer hooks: an observer forces element-wise replay.  They let a
 * differential test show that the fast path it pins really fired.
 */
struct CcPathCounts
{
    /** Ops walked element by element, memo refusals excluded. */
    std::uint64_t elementWiseOps = 0;
    /** Ops filled in one loop and timed by the cold closed form. */
    std::uint64_t coldOps = 0;
    /** Single-stream ops answered from their canonical state. */
    std::uint64_t canonicalOps = 0;
    /** Ops replayed from a run memo (snapshot) certificate. */
    std::uint64_t memoOps = 0;
    /** Ops walked element by element because the memo refused them. */
    std::uint64_t refusedOps = 0;
    /**
     * Walked double-stream ops whose single-stream tail was answered
     * from the first stream's canonical state.
     */
    std::uint64_t closedTails = 0;
    /** Walked double-stream ops whose tail took the cold-pass body. */
    std::uint64_t coldTails = 0;
    /** Element reads gang probes credited as hits in bulk. */
    std::uint64_t gangHits = 0;
    /** Gangs whose misses were walked alone, from an exact hit mask. */
    std::uint64_t exactMaskGangs = 0;
    /** Walks whose reads' first touches were classified up front. */
    std::uint64_t classifiedOps = 0;
    /** Lines hashed into the first-touch set's FlatSet. */
    std::uint64_t hashedLines = 0;

    std::uint64_t
    ops() const
    {
        return elementWiseOps + coldOps + canonicalOps + memoOps +
               refusedOps;
    }

    void
    add(const CcPathCounts &o)
    {
        elementWiseOps += o.elementWiseOps;
        coldOps += o.coldOps;
        canonicalOps += o.canonicalOps;
        memoOps += o.memoOps;
        refusedOps += o.refusedOps;
        closedTails += o.closedTails;
        coldTails += o.coldTails;
        gangHits += o.gangHits;
        exactMaskGangs += o.exactMaskGangs;
        classifiedOps += o.classifiedOps;
        hashedLines += o.hashedLines;
    }
};

} // namespace vcache

#endif // VCACHE_SIM_RESULT_HH
