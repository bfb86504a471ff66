#include "sim/mm_sim.hh"

#include "numtheory/gcd.hh"
#include "obs/observer.hh"
#include "util/faultinject.hh"

namespace vcache
{

MmSimulator::MmSimulator(const MachineParams &params)
    : machine(params),
      memory(params.bankBits, params.memoryTime, params.bankMapping)
{
}

void
MmSimulator::reset()
{
    memory.reset();
    buses.reset();
    clock = 0;
}

SimResult
MmSimulator::run(const Trace &trace)
{
    TraceVectorSource source(trace);
    return run(source);
}

SimResult
MmSimulator::run(TraceSource &source)
{
    // Sampled is driven from sim/sampling.hh; per-unit slices run
    // through the batched engine like Auto.
    if (engineKind != SimEngine::Scalar)
        return runBatched(source);
    // The NullObserver instantiation IS the production fast path.
    NullObserver obs;
    return run(source, obs);
}

SimResult
MmSimulator::runBatched(TraceSource &source)
{
    SimResult result;
    NullObserver obs;
    const std::uint64_t mvl = machine.mvl;

    VectorOp op;
    while (source.next(op)) {
        if (cancel && cancel->cancelled())
            throwCancelled(*cancel);
        clock += static_cast<Cycles>(machine.blockOverhead);

        // Strips holding second-stream elements replay element-wise;
        // the single-stream tail after them starts on a strip
        // boundary with every bank and both read buses free -- the
        // closed form's base case.  Eligibility is settled before the
        // first strip issues, so an op never falls back part-way.
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
        if (!canFastForward(tail))
            head = op.first.length;

        for (std::uint64_t done = 0; done < head; done += mvl) {
            clock += static_cast<Cycles>(machine.stripOverhead +
                                         machine.startupTime());
            const std::uint64_t count =
                std::min<std::uint64_t>(mvl, op.first.length - done);
            issueStrip(op.first, second, done, count, result, obs);
        }
        if (head < op.first.length)
            fastForwardRun(tail, result);

        // Stores drain through the write bus without stalling the
        // pipeline; the write bus is reserved live even on
        // fast-forwarded ops (its wait accounting depends on
        // absolute time).
        if (op.store)
            buses.reserveWrites(clock, op.store->length);
    }

    result.totalCycles = clock;
    return result;
}

bool
MmSimulator::canFastForward(const VectorRef &ref) const
{
    // An armed fault plan must see every memory.bank.issue site hit;
    // the closed form never visits them.
    if (faults::kEnabled && faults::activeCheap())
        return false;
    const BankMapping mapping = memory.bankMapping();
    if (mapping != BankMapping::LowOrder &&
        mapping != BankMapping::PrimeModulo)
        return false;
    // LowOrder is wrap-safe (2^b divides 2^64); the prime modulus
    // needs the true integer progression.
    if (mapping == BankMapping::PrimeModulo &&
        !spansWithoutWrap(ref.base, ref.stride, ref.length))
        return false;
    const Cycles gap = static_cast<Cycles>(machine.stripOverhead +
                                           machine.startupTime());
    // Every bank goes idle again within t_m - 1 cycles of its strip's
    // last issue, so this start-up guarantees all banks are free at
    // every strip start -- the base case of the closed form.
    return gap + 1 >= memory.busyTime();
}

void
MmSimulator::fastForwardRun(const VectorRef &ref, SimResult &result)
{
    const Cycles gap = static_cast<Cycles>(machine.stripOverhead +
                                           machine.startupTime());
    const Cycles tm = memory.busyTime();
    const std::uint64_t banks = memory.banks();
    const std::uint64_t q =
        banks / gcd(floorMod(ref.stride, banks), banks);
    const bool conflicted = tm > q;
    // Cycle offset of within-strip element i from its strip's start:
    // banks repeat every q elements, so with t_m > q each revisit
    // waits out the tail of the previous access to the same bank.
    const auto issueOffset = [&](std::uint64_t i) -> Cycles {
        return conflicted ? (i % q) + (i / q) * tm : i;
    };

    const std::uint64_t mvl = machine.mvl;
    const std::uint64_t strips = (ref.length + mvl - 1) / mvl;
    const std::uint64_t last_count =
        ref.length - (strips - 1) * mvl;
    // All strips but the last are full, so strip starts form an
    // arithmetic progression.
    const Cycles full_span = gap + issueOffset(mvl - 1) + 1;
    const Cycles first_start = clock + gap;
    const Cycles last_start =
        first_start + (strips - 1) * full_span;

    if (conflicted) {
        const Cycles per_revisit = tm - q;
        result.stallCycles +=
            (strips - 1) * ((mvl - 1) / q) * per_revisit +
            ((last_count - 1) / q) * per_revisit;
    }
    result.results += ref.length;

    // Bus end state needs the grant cycles of the last two requests
    // (see BusSet::absorbReadRun).  Within a strip starting at S,
    // request 0 is granted at S and request i at the previous issue
    // time plus one.
    const auto grantInStrip = [&](Cycles start, std::uint64_t i) {
        return i == 0 ? start : start + issueOffset(i - 1) + 1;
    };
    const Cycles last_grant =
        grantInStrip(last_start, last_count - 1);
    Cycles prev_grant = last_grant; // unused when length == 1
    if (ref.length >= 2) {
        if (last_count >= 2) {
            prev_grant = grantInStrip(last_start, last_count - 2);
        } else {
            const Cycles prev_start = last_start - full_span;
            prev_grant = grantInStrip(prev_start, mvl - 1);
        }
    }
    buses.absorbReadRun(ref.length, last_grant, prev_grant);

    // Bank end state: the run touches min(q, length) distinct banks,
    // one per residue class of the element index; each bank's busy
    // horizon comes from its class's highest-index element.
    const std::uint64_t touched =
        q < ref.length ? q : ref.length;
    for (std::uint64_t r = 0; r < touched; ++r) {
        const std::uint64_t k =
            r + ((ref.length - 1 - r) / q) * q;
        const Cycles start = first_start + (k / mvl) * full_span;
        memory.noteRunIssue(ref.element(k),
                            start + issueOffset(k % mvl));
    }

    clock = last_start + issueOffset(last_count - 1) + 1;
}

} // namespace vcache
