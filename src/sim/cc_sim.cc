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
    : machine(params), vectorCache(makeCache(cache_config)),
      memory(params.bankBits, params.memoryTime, params.bankMapping)
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
    prefetchPolicy = policy;
    prefetchDegree = degree;
}

void
CcSimulator::reset()
{
    vectorCache->reset();
    memory.reset();
    buses.reset();
    touchedLines.clear();
    clock = 0;
    inFlight.clear();
    prefetchCount = 0;
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
    // every hook vanishes under `if constexpr`, leaving exactly the
    // uninstrumented loops.
    NullObserver obs;
    // Run batching only engages on the uninstrumented overloads, and
    // only in the no-prefetch instantiation: prefetch timing depends
    // on absolute bank/bus state, which extrapolated passes skip.
    // Sampled is driven from sim/sampling.hh, which feeds this
    // simulator per-unit trace slices; inside a unit it behaves like
    // Auto.
    if (engineKind != SimEngine::Scalar &&
        prefetchPolicy == PrefetchPolicy::None && prefetchCount == 0) {
        Cache *base = vectorCache.get();
        if (auto *direct = dynamic_cast<DirectMappedCache *>(base))
            return runBatched(*direct, source, obs);
        if (auto *prime = dynamic_cast<PrimeMappedCache *>(base))
            return runBatched(*prime, source, obs);
        return runBatched(*base, source, obs);
    }
    return run(source, obs);
}

bool
CcSimulator::appendOpState(const VectorOp &op,
                           std::vector<std::uint64_t> &out) const
{
    if (!vectorCache->appendRunState(op.first.base, op.first.stride,
                                     op.first.length, out))
        return false;
    if (op.second) {
        // The element loop reads the second stream only while the
        // first still has elements, so its reach truncates there.
        const std::uint64_t length =
            std::min(op.second->length, op.first.length);
        return vectorCache->appendRunState(op.second->base,
                                           op.second->stride, length,
                                           out);
    }
    return true;
}

void
CcSimulator::applyBatch(const BatchMemo &memo, SimResult &result)
{
    result.results += memo.delta.results;
    result.hits += memo.delta.hits;
    result.misses += memo.delta.misses;
    result.compulsoryMisses += memo.delta.compulsoryMisses;
    result.stallCycles += memo.delta.stallCycles;
    clock += memo.clockDelta;
    vectorCache->applyStatsDelta(memo.stats);
}

SimResult
CcSimulator::runVirtual(const Trace &trace)
{
    TraceVectorSource source(trace);
    NullObserver obs;
    return dispatchRun(*vectorCache, source, obs);
}

} // namespace vcache
