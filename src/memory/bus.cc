#include "memory/bus.hh"

#include <algorithm>

namespace vcache
{

Cycles
PipelinedBus::reserve(Cycles earliest)
{
    const Cycles when = std::max(earliest, nextFree);
    nextFree = when + 1;
    return when;
}

Cycles
BusSet::reserveRead(Cycles earliest)
{
    // Two read buses serve the two concurrent vector streams; pick
    // whichever can accept the transfer sooner (ties favour bus 0).
    if (rd1.nextFreeAt() < rd0.nextFreeAt())
        return rd1.reserve(earliest);
    return rd0.reserve(earliest);
}

void
BusSet::reset()
{
    rd0.reset();
    rd1.reset();
}

} // namespace vcache
