#include "sim/gang.hh"

#include <optional>

#include "obs/observer.hh"
#include "sim/cc_sim.hh"
#include "sim/cc_walker.hh"

namespace vcache
{

namespace
{

template <typename CacheT>
std::vector<Expected<SimResult>>
runGang(const MachineParams &base, CacheT &cache, TraceSource &source,
        std::span<const GangLane> gang, CcPathCounts *paths)
{
    std::vector<CcLane> lanes;
    lanes.reserve(gang.size());
    for (const GangLane &g : gang) {
        MachineParams m = base;
        m.memoryTime = g.memoryTime;
        lanes.emplace_back(m, g.cancel);
    }
    std::vector<std::optional<Error>> errors(lanes.size());
    std::size_t live = lanes.size();

    // Functional state, shared across every lane (see gang.hh).
    // Presized from the trace's read footprint so compulsory misses
    // never pay a rehash.
    FirstTouchSet touched;
    touched.reserve(source.readFootprint());
    NullObserver obs;
    const CcWalkOptions opts{.mvl = base.mvl, .fastPaths = true};
    CcWalker<CacheT, LaneCount::Many, NullObserver> walker(
        cache, touched, lanes, opts, obs);

    VectorOp op;
    while (live != 0 && source.next(op)) {
        for (std::size_t n = 0; n < lanes.size(); ++n) {
            CcLane &l = lanes[n];
            if (l.dead || !l.cancel || !l.cancel->cancelled())
                continue;
            l.dead = true;
            errors[n] = cancelledError(*l.cancel);
            --live;
        }
        if (live == 0)
            break;
        walker.step(op);
    }
    walker.flush();
    if (paths)
        *paths = walker.pathCounts();

    std::vector<Expected<SimResult>> out;
    out.reserve(lanes.size());
    for (std::size_t n = 0; n < lanes.size(); ++n) {
        if (errors[n]) {
            out.emplace_back(*errors[n]);
            continue;
        }
        SimResult r = walker.counts;
        r.stallCycles = lanes[n].stall;
        r.totalCycles = lanes[n].clock;
        out.emplace_back(r);
    }
    return out;
}

} // namespace

std::vector<Expected<SimResult>>
simulateCcGang(const MachineParams &base, const CacheConfig &config,
               TraceSource &source, std::span<const GangLane> lanes,
               CcPathCounts *paths)
{
    if (lanes.empty())
        return {};
    const auto cache = makeCache(config);
    return withConcreteCache(*cache, [&](auto &concrete) {
        return runGang(base, concrete, source, lanes, paths);
    });
}

std::vector<Expected<SimResult>>
simulateCcGang(const MachineParams &base, CacheScheme scheme,
               TraceSource &source, std::span<const GangLane> lanes,
               CcPathCounts *paths)
{
    return simulateCcGang(base, ccCacheConfig(base, scheme), source,
                          lanes, paths);
}

} // namespace vcache
