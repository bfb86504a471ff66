/**
 * @file
 * Vector access traces.
 *
 * A trace is a sequence of vector operations.  Each operation loads
 * one vector stream (single stream) or two concurrent streams (double
 * stream, the SAXPY shape of Section 3.1) and optionally writes one
 * result stream.  Streams are strided references into a flat
 * word-addressed memory.
 */

#ifndef VCACHE_TRACE_ACCESS_HH
#define VCACHE_TRACE_ACCESS_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/types.hh"

namespace vcache
{

/** One strided vector reference. */
struct VectorRef
{
    /** Word address of element 0. */
    Addr base = 0;
    /** Stride between consecutive elements, in words; may be negative. */
    std::int64_t stride = 1;
    /** Number of elements. */
    std::uint64_t length = 0;

    /** Word address of element i. */
    Addr
    element(std::uint64_t i) const
    {
        return static_cast<Addr>(static_cast<std::int64_t>(base) +
                                 stride * static_cast<std::int64_t>(i));
    }
};

inline bool
operator==(const VectorRef &a, const VectorRef &b)
{
    return a.base == b.base && a.stride == b.stride &&
           a.length == b.length;
}

inline bool
operator!=(const VectorRef &a, const VectorRef &b)
{
    return !(a == b);
}

/** One vector operation: up to two loads plus an optional store. */
struct VectorOp
{
    VectorRef first;
    std::optional<VectorRef> second;
    std::optional<VectorRef> store;

    bool doubleStream() const { return second.has_value(); }
};

/**
 * Whole-operation equality -- how the run-batched simulators detect
 * the repeated-sweep shape (the same op issued back to back) that
 * they can fast-forward.
 */
inline bool
operator==(const VectorOp &a, const VectorOp &b)
{
    return a.first == b.first && a.second == b.second &&
           a.store == b.store;
}

inline bool
operator!=(const VectorOp &a, const VectorOp &b)
{
    return !(a == b);
}

/** A full workload trace. */
using Trace = std::vector<VectorOp>;

/** All element addresses of one reference, in access order. */
std::vector<Addr> expand(const VectorRef &ref);

/** Total loaded elements across a trace (stores excluded). */
std::uint64_t loadedElements(const Trace &trace);

/** Total element accesses (loads + stores) across a trace. */
std::uint64_t totalElements(const Trace &trace);

/**
 * Upper bound on the distinct words the loads of `ops` read (first
 * and second streams; stores excluded), hence on the distinct lines
 * of any line size: the smaller of the summed lengths of the
 * distinct read references and the size of the union of their
 * address extents.  The first is tight for the synthetic workloads,
 * whose references rarely overlap; the second caps traces that
 * re-read one matrix through many distinct references.
 */
std::uint64_t readFootprintBound(std::span<const VectorOp> ops);

/**
 * Flatten a trace to element granularity in issue order.
 *
 * Double streams interleave their two vectors element by element,
 * the way the two read buses service them in the machine models.
 * Stores follow the loads of their operation.
 */
std::vector<Addr> flatten(const Trace &trace);

} // namespace vcache

#endif // VCACHE_TRACE_ACCESS_HH
