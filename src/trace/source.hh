/**
 * @file
 * Streaming trace sources.
 *
 * A TraceSource yields one VectorOp at a time, so simulators and
 * sweeps can drive a workload without first materializing the whole
 * Trace vector -- the sweep grids run thousands of (machine, trace)
 * points and the trace storage was a visible share of their footprint.
 *
 * The stochastic sources draw from the *same* RNG stream, in the same
 * order, as the batch generators in vcm.cc / multistride.cc; in fact
 * those generators are now implemented by draining the sources, so a
 * streamed run and a materialized run see bit-identical operations.
 */

#ifndef VCACHE_TRACE_SOURCE_HH
#define VCACHE_TRACE_SOURCE_HH

#include <algorithm>
#include <cstdint>
#include <span>

#include "trace/access.hh"
#include "trace/multistride.hh"
#include "trace/vcm.hh"
#include "util/strides.hh"

namespace vcache
{

/** Pull-style stream of vector operations. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next operation.
     * @return false when the workload is exhausted (`op` untouched)
     */
    virtual bool next(VectorOp &op) = 0;

    /** Rewind to the first operation (restarting any RNG stream). */
    virtual void reset() = 0;

    /**
     * readFootprintBound() over the whole workload, answered without
     * moving the stream -- what the CC engines presize their
     * first-touch sets from.
     */
    virtual std::uint64_t readFootprint() const = 0;
};

/** Adapter: stream an existing materialized Trace. */
class TraceVectorSource final : public TraceSource
{
  public:
    /** @param trace the trace to walk (not owned; must outlive this) */
    explicit TraceVectorSource(const Trace &trace) : ops(trace) {}

    bool
    next(VectorOp &op) override
    {
        if (pos >= ops.size())
            return false;
        op = ops[pos++];
        return true;
    }

    void reset() override { pos = 0; }

    std::uint64_t
    readFootprint() const override
    {
        return readFootprintBound(ops);
    }

  private:
    const Trace &ops;
    std::size_t pos = 0;
};

/**
 * Adapter: stream a half-open [begin, end) slice of a materialized
 * Trace -- the sampling engine's unit-addressable view (detailed
 * warming prefix and measurement window of one measurement unit).
 */
class TraceSliceSource final : public TraceSource
{
  public:
    /**
     * @param trace the trace to slice (not owned; must outlive this)
     * @param begin index of the first operation to emit
     * @param end one past the last operation (clamped to the trace)
     */
    TraceSliceSource(const Trace &trace, std::size_t begin,
                     std::size_t end)
        : ops(trace), first(begin > trace.size() ? trace.size() : begin),
          last(end > trace.size() ? trace.size() : end),
          pos(first)
    {
    }

    bool
    next(VectorOp &op) override
    {
        if (pos >= last)
            return false;
        op = ops[pos++];
        return true;
    }

    void reset() override { pos = first; }

    std::uint64_t
    readFootprint() const override
    {
        return readFootprintBound(std::span(ops).subspan(
            first, std::max(first, last) - first));
    }

  private:
    const Trace &ops;
    std::size_t first;
    std::size_t last;
    std::size_t pos;
};

/** Drain a source into a materialized Trace (source left exhausted). */
inline Trace
materializeTrace(TraceSource &source)
{
    Trace trace;
    source.reset();
    VectorOp op;
    while (source.next(op))
        trace.push_back(op);
    return trace;
}

/** Streaming equivalent of generateVcmTrace(). */
class VcmTraceSource final : public TraceSource
{
  public:
    VcmTraceSource(const VcmParams &params, std::uint64_t seed);

    bool next(VectorOp &op) override;
    void reset() override;
    /** Drains a fresh copy (same params and seed). */
    std::uint64_t readFootprint() const override;

  private:
    VcmParams params;
    std::uint64_t seedValue;
    Rng rng;
    StrideDistribution dist1;
    StrideDistribution dist2;
    std::uint64_t secondLen;

    // Walk state: position (blk, pass) plus the per-block draw.
    std::uint64_t blk = 0;
    std::uint64_t pass = 0;
    std::int64_t stride1 = 0;
    Addr blockBase = 0;
};

/**
 * The streaming-kernel shape: one constant-stride load (optionally
 * paired with a store over the same extent) issued `repeats` times --
 * a blocked kernel re-sweeping its working set.  The repeated-identical
 * op stream is the best case for the simulators' run-batched engines,
 * so this source doubles as their benchmark workload; it is also the
 * cheapest way to build a deterministic constant-stride trace in
 * tests.
 */
class ConstantStrideSource final : public TraceSource
{
  public:
    /**
     * @param base word address of element 0
     * @param stride words between consecutive elements
     * @param length elements per operation
     * @param repeats how many identical operations to emit
     * @param with_store also emit a store over the same extent
     */
    ConstantStrideSource(Addr base, std::int64_t stride,
                         std::uint64_t length, std::uint64_t repeats,
                         bool with_store = false)
        : op_{VectorRef{base, stride, length}, {}, {}},
          repeats_(repeats)
    {
        if (with_store)
            op_.store = VectorRef{base, stride, length};
    }

    bool
    next(VectorOp &op) override
    {
        if (emitted >= repeats_)
            return false;
        ++emitted;
        op = op_;
        return true;
    }

    void reset() override { emitted = 0; }

    std::uint64_t
    readFootprint() const override
    {
        return repeats_ == 0 ? 0 : op_.first.length;
    }

  private:
    VectorOp op_;
    std::uint64_t repeats_;
    std::uint64_t emitted = 0;
};

/** Streaming equivalent of generateMultistrideTrace(). */
class MultistrideTraceSource final : public TraceSource
{
  public:
    MultistrideTraceSource(const MultistrideParams &params,
                           std::uint64_t seed);

    bool next(VectorOp &op) override;
    void reset() override;
    /** Drains a fresh copy (same params and seed). */
    std::uint64_t readFootprint() const override;

  private:
    MultistrideParams params;
    std::uint64_t seedValue;
    Rng rng;
    StrideDistribution dist;

    std::uint64_t sweep = 0;
    std::uint64_t rep = 0;
    VectorOp current;
};

} // namespace vcache

#endif // VCACHE_TRACE_SOURCE_HH
