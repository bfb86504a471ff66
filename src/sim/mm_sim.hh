/**
 * @file
 * Trace-driven simulator of the MM-model machine (Figure 2): vector
 * registers fed straight from interleaved banks over pipelined buses.
 *
 * Every vector operation strip-mines into MVL-element chunks; each
 * chunk pays the start-up and loop overheads of Equation (1), then
 * issues one element per cycle per stream, stalling in-order when a
 * bank is still busy.  This is the machine the analytic I_s^M / I_c^M
 * formulas approximate, so the two are cross-checked in tests and in
 * the validation bench.
 *
 * There is one op loop and one strip-issue loop, both member
 * templates over an Observer policy (the same split as CcSimulator):
 * the plain run() overloads instantiate them with the zero-cost
 * NullObserver, while run(source, obs) with a TracingObserver sees
 * every vector op, bank issue/conflict and bus wait with cycle
 * stamps.  The only engine choice is made per op, before its first
 * strip: fast-forward the op's single-stream tail in closed form, or
 * issue every element.  The strip loop keeps its clock and stall in
 * registers and steps both addresses by their strides; the machine's
 * clock and the result are written once per strip.
 *
 * Run batching (SimEngine::Auto, the default for uninstrumented
 * runs): for a single constant-stride stream the whole conflict
 * pattern is linear-congruence structure, and
 * InterleavedMemory::issueStripRun() times the whole op in O(1) plus
 * O(Q) additions of exact end-state absorption, Q the bank period of
 * the stride.
 * That closed form is the one the CC walker's cold pass uses too (a
 * compulsory miss pipelines through the banks like an MM access), and
 * InterleavedMemory::canIssueStripRun() is its one eligibility
 * predicate: banks provably free at every strip start (strip start-up
 * >= t_m - 1) and a residue-periodic mapping (LowOrder always;
 * PrimeModulo for non-wrapping runs).  A double-stream op replays the
 * strips that hold second-stream elements element-wise (the two
 * streams' bank interleaving is cheap to replay but fiddly to prove)
 * and fast-forwards the single-stream tail after them, which starts on
 * a strip boundary with every bank free.  Skewed or XOR-hashed
 * mappings, a PrimeModulo tail that wraps, armed fault-injection
 * plans (the batched path would skip the per-element
 * memory.bank.issue sites), instrumented runs and SimEngine::Scalar
 * replay the whole op element-wise.  Equivalence is pinned by
 * tests/sim/batched_test.cc and tests/sim/mm_fuzz_test.cc.
 *
 * Bus inertness: no MM read ever waits for a bus.  Each issue cycle
 * makes at most two reads, one per stream, over the two read buses,
 * and the next issue cycle comes after every grant of this one, so
 * both buses are free again by then.  Only observed runs reserve the
 * read buses (so onBusWait still fires, with zero waits; tests/obs
 * pins that), exactly as observed CC runs do.  Stores drain through
 * the write buffer without stalling and nothing reads the write bus,
 * so it is not modelled.
 */

#ifndef VCACHE_SIM_MM_SIM_HH
#define VCACHE_SIM_MM_SIM_HH

#include <algorithm>

#include "analytic/machine.hh"
#include "memory/bus.hh"
#include "memory/interleaved.hh"
#include "sim/cancel.hh"
#include "sim/engine.hh"
#include "sim/result.hh"
#include "trace/access.hh"
#include "trace/source.hh"

namespace vcache
{

/** Cycle-level MM-model machine. */
class MmSimulator
{
  public:
    explicit MmSimulator(const MachineParams &params);

    /** Run a whole trace from a cold start. */
    SimResult run(const Trace &trace);

    /** Run a streamed workload (no materialized trace needed). */
    SimResult run(TraceSource &source);

    /**
     * Instrumented run: identical timing, every Observer hook fired.
     * The observer must satisfy the contract in src/obs/observer.hh.
     */
    template <typename Observer>
    SimResult run(const Trace &trace, Observer &obs);

    /** Instrumented streamed run. */
    template <typename Observer>
    SimResult run(TraceSource &source, Observer &obs);

    /**
     * Select the execution engine for uninstrumented runs: Auto (the
     * default) fast-forwards eligible constant-stride ops in closed
     * form; Scalar forces element-wise replay.  Both produce
     * bit-identical SimResults and memory/bus state.  Instrumented
     * runs always replay element-wise regardless.
     */
    void setEngine(SimEngine engine) { engineKind = engine; }
    SimEngine engine() const { return engineKind; }

    /** Reset banks/buses between runs. */
    void reset();

    /**
     * Cooperative cancellation: polled once per vector operation; a
     * tripped token raises VcError(Timeout|Cancelled) out of run().
     */
    void setCancelToken(const CancelToken *token) { cancel = token; }

    const MachineParams &params() const { return machine; }

  private:
    /** Issue one strip of up to MVL elements from one or two streams. */
    template <typename Observer>
    void issueStrip(const VectorRef &first, const VectorRef *second,
                    std::uint64_t offset, std::uint64_t count,
                    SimResult &result, Observer &obs);

    MachineParams machine;
    InterleavedMemory memory;
    /** The read buses; reserved by observed runs only. */
    BusSet buses;
    Cycles clock = 0;
    SimEngine engineKind = SimEngine::Auto;
    const CancelToken *cancel = nullptr;
};

template <typename Observer>
void
MmSimulator::issueStrip(const VectorRef &first, const VectorRef *second,
                        std::uint64_t offset, std::uint64_t count,
                        SimResult &result, Observer &obs)
{
    // The strip's clock and stall live in registers: the member and
    // the result are written once, after the last element (a fault
    // thrown mid-strip loses them, but every caller then discards the
    // machine).  Both addresses step by their strides.
    Cycles now = clock;
    Cycles stalled = 0;
    const auto step1 = static_cast<Addr>(first.stride);
    Addr a1 = first.element(offset);
    // The second (shorter) vector's elements within this strip.
    std::uint64_t count2 = 0;
    Addr a2 = 0;
    Addr step2 = 0;
    if (second && offset < second->length) {
        count2 = std::min(count, second->length - offset);
        a2 = second->element(offset);
        step2 = static_cast<Addr>(second->stride);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        Cycles ready = now;

        // Stream 1 element.
        {
            Cycles bus = ready;
            if constexpr (Observer::kEnabled)
                bus = buses.reserveReadObserved(ready, obs);
            ready = std::max(ready, memory.issueObserved(a1, bus, obs));
            a1 += step1;
        }
        // Stream 2 element, while the second vector has elements.
        if (i < count2) {
            Cycles bus = now;
            if constexpr (Observer::kEnabled)
                bus = buses.reserveReadObserved(now, obs);
            ready = std::max(ready, memory.issueObserved(a2, bus, obs));
            a2 += step2;
        }

        stalled += ready - now;
        now = ready + 1; // in-order pipeline: next issue slot
    }
    clock = now;
    result.stallCycles += stalled;
    result.results += count;
}

template <typename Observer>
SimResult
MmSimulator::run(TraceSource &source, Observer &obs)
{
    SimResult result;
    const std::uint64_t mvl = machine.mvl;
    // Per-strip start-up: T_strip + T_start(t_m).
    const Cycles gap = static_cast<Cycles>(machine.stripOverhead +
                                           machine.startupTime());

    // The MM machine has no cache: observers see a zero-set domain.
    if constexpr (Observer::kEnabled)
        obs.onRunBegin(0, 0);

    VectorOp op;
    while (source.next(op)) {
        if (cancel && cancel->cancelled())
            throwCancelled(*cancel);
        clock += static_cast<Cycles>(machine.blockOverhead);
        if constexpr (Observer::kEnabled)
            obs.onVectorOpBegin(clock, op);

        // Strips holding second-stream elements issue element-wise;
        // the single-stream tail after them starts on a strip
        // boundary with every bank free -- the closed form's base
        // case.  Fast-forward is settled before
        // the first strip issues, so an op never falls back
        // part-way; observed runs and the Scalar engine issue every
        // element.
        const VectorRef *second =
            op.second ? &op.second.value() : nullptr;
        std::uint64_t head = 0;
        if (second) {
            const std::uint64_t reach =
                std::min(op.first.length, second->length);
            head = std::min(op.first.length,
                            (reach + mvl - 1) / mvl * mvl);
        }
        const VectorRef tail{op.first.element(head), op.first.stride,
                             op.first.length - head};
        if (Observer::kEnabled || engineKind == SimEngine::Scalar ||
            !memory.canIssueStripRun(gap, tail.base, tail.stride,
                                     tail.length))
            head = op.first.length;

        for (std::uint64_t done = 0; done < head; done += mvl) {
            clock += gap;
            const std::uint64_t count =
                std::min<std::uint64_t>(mvl, op.first.length - done);
            issueStrip(op.first, second, done, count, result, obs);
        }
        if (head < op.first.length) {
            memory.issueStripRun(gap, mvl, tail.base, tail.stride,
                                 tail.length, clock, result.stallCycles);
            result.results += tail.length;
        }

        // Stores drain through the write buffer without stalling the
        // pipeline (the paper's assumption), so they are never issued.
        if constexpr (Observer::kEnabled)
            obs.onVectorOpEnd(clock);
    }

    result.totalCycles = clock;
    if constexpr (Observer::kEnabled)
        obs.onRunEnd(clock, result);
    return result;
}

template <typename Observer>
SimResult
MmSimulator::run(const Trace &trace, Observer &obs)
{
    TraceVectorSource source(trace);
    return run(source, obs);
}

} // namespace vcache

#endif // VCACHE_SIM_MM_SIM_HH
