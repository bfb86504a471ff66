/**
 * @file
 * Pipelined bus model.
 *
 * The machine models connect processor and memory through pipelined
 * buses, each able to move one line per cycle: two read buses, one
 * per vector stream, and a write bus behind the write buffer.  Stores
 * never stall the pipeline and nothing waits on the write bus, so
 * only the read buses are modelled.  A bus is a unit-rate resource:
 * requests are accepted in order, one per cycle.
 */

#ifndef VCACHE_MEMORY_BUS_HH
#define VCACHE_MEMORY_BUS_HH

#include "util/types.hh"

namespace vcache
{

/** One pipelined bus accepting one transfer per cycle. */
class PipelinedBus
{
  public:
    /**
     * Reserve the next slot at or after `earliest`.
     * @return the cycle in which the transfer occupies the bus
     */
    Cycles reserve(Cycles earliest);

    /** Earliest cycle at which the next transfer could start. */
    Cycles nextFreeAt() const { return nextFree; }

    void reset() { nextFree = 0; }

  private:
    Cycles nextFree = 0;
};

/** The paper's two read buses. */
class BusSet
{
  public:
    /** Round-robin-free read bus: picks the earliest available. */
    Cycles reserveRead(Cycles earliest);

    /**
     * reserveRead() with an Observer policy hook reporting how many
     * cycles the transfer waited for a free read bus.  With a
     * disabled observer this compiles to exactly reserveRead().
     */
    template <typename Observer>
    Cycles
    reserveReadObserved(Cycles earliest, Observer &obs)
    {
        const Cycles grant = reserveRead(earliest);
        if constexpr (Observer::kEnabled)
            obs.onBusWait(earliest, grant - earliest);
        return grant;
    }

    void reset();

  private:
    PipelinedBus rd0;
    PipelinedBus rd1;
};

} // namespace vcache

#endif // VCACHE_MEMORY_BUS_HH
