/**
 * @file
 * Shared-trace gang simulation: one functional pass over a workload
 * feeds many CC-machine timing lanes at once.
 *
 * Every figure in the paper sweeps many cache organizations over the
 * *same* workload, and for lanes that differ only in the memory time
 * t_m the expensive half of a CC run is completely shared: with
 * prefetching off, no observer attached and blocking misses (the
 * paper's model), the cache never reads the clock, so the functional
 * stream -- probe outcomes, evictions, the compulsory first-touch
 * set, LRU/recency updates -- is identical for every t_m.
 *
 * simulateCcGang() is the N-lane instantiation of the CC walker
 * (sim/cc_walker.hh, which states the timing rules): one walk, with
 * the cold pass, the gang probe and the run memo, over one shared
 * cache.  Countable events land in every lane as one multiply-add
 * chain; each compulsory miss is resolved against every lane's own
 * bank replica, and a cold pass times each lane in closed form.
 * Each lane's SimResult is therefore bit-identical to a solo
 * CcSimulator run of that t_m (tests/sim/gang_test.cc and
 * tests/sim/cc_fuzz_test.cc hold the line), at roughly the cost of
 * one run instead of N.  Lanes always take every fast path; the
 * element-wise reference they are pinned against is a solo
 * SimEngine::Scalar run.
 *
 * Restrictions (callers fall back to per-lane simulation otherwise):
 * no prefetching, no observer, blocking misses only -- exactly the
 * configuration evaluatePoint() uses.  The runner is also not a
 * fault-injection boundary: lane bank issues interleave inside one
 * pass, so armed fault plans must use per-point evaluation to keep
 * site hit sequences attributable (the same rule the batched MM
 * engine applies; see sim/evaluate.cc).
 */

#ifndef VCACHE_SIM_GANG_HH
#define VCACHE_SIM_GANG_HH

#include <span>
#include <vector>

#include "analytic/machine.hh"
#include "cache/factory.hh"
#include "sim/cancel.hh"
#include "sim/result.hh"
#include "trace/source.hh"
#include "util/result.hh"

namespace vcache
{

/** One timing lane of a shared-trace gang run. */
struct GangLane
{
    /** Bank busy / memory access time t_m for this lane. */
    std::uint64_t memoryTime = 16;
    /**
     * Optional per-lane cancellation, polled once per vector op like
     * the solo simulator's token.  A tripped lane comes back as
     * Errc::Timeout/Cancelled without disturbing the other lanes.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * Run `source` once against a single cache of `config` geometry and
 * return, for each lane, the SimResult a solo CcSimulator with
 * machine {base with memoryTime = lane.memoryTime} would produce on
 * the same op stream.  `base.memoryTime` itself is ignored.  An empty
 * lane list returns an empty vector without touching the source.
 * When `paths` is set, it receives which walker path answered each op.
 */
std::vector<Expected<SimResult>>
simulateCcGang(const MachineParams &base, const CacheConfig &config,
               TraceSource &source, std::span<const GangLane> lanes,
               CcPathCounts *paths = nullptr);

/** Scheme convenience: the paper's direct or prime cache. */
std::vector<Expected<SimResult>>
simulateCcGang(const MachineParams &base, CacheScheme scheme,
               TraceSource &source, std::span<const GangLane> lanes,
               CcPathCounts *paths = nullptr);

} // namespace vcache

#endif // VCACHE_SIM_GANG_HH
