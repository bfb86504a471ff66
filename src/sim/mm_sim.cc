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
    // The NullObserver instantiation IS the production path: its
    // hooks compile away and eligible ops fast-forward.
    NullObserver obs;
    return run(source, obs);
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
