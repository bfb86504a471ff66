#include "sim/mm_sim.hh"

#include "obs/observer.hh"

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

} // namespace vcache
