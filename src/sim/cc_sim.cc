#include "sim/cc_sim.hh"

#include "obs/observer.hh"
#include "util/logging.hh"

namespace vcache
{

CacheConfig
ccCacheConfig(const MachineParams &params, CacheScheme scheme)
{
    CacheConfig config;
    config.organization = scheme == CacheScheme::Prime
                              ? Organization::PrimeMapped
                              : Organization::DirectMapped;
    config.indexBits = params.cacheIndexBits;
    config.offsetBits = 0; // the paper's one-word lines
    return config;
}

CcSimulator::CcSimulator(const MachineParams &params,
                         const CacheConfig &cache_config)
    : machine(params), vectorCache(makeCache(cache_config)), lane(params)
{
}

CcSimulator::CcSimulator(const MachineParams &params, CacheScheme scheme)
    : CcSimulator(params, ccCacheConfig(params, scheme))
{
}

void
CcSimulator::enablePrefetch(PrefetchPolicy policy, unsigned degree)
{
    vc_assert(degree >= 1 || policy == PrefetchPolicy::None,
              "prefetch degree must be at least 1");
    solo.prefetchPolicy = policy;
    solo.prefetchDegree = degree;
}

void
CcSimulator::reset()
{
    vectorCache->reset();
    lane.memory.reset();
    lane.clock = 0;
    solo.buses.reset();
    solo.inFlight.clear();
    solo.prefetchCount = 0;
    touchedLines.clear();
    paths = CcPathCounts{};
}

SimResult
CcSimulator::run(const Trace &trace)
{
    TraceVectorSource source(trace);
    return run(source);
}

SimResult
CcSimulator::run(TraceSource &source)
{
    // The NullObserver instantiations ARE the production fast paths:
    // every hook vanishes under `if constexpr`.
    NullObserver obs;
    return run(source, obs);
}

} // namespace vcache
