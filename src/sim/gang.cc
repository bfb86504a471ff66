#include "sim/gang.hh"

#include <algorithm>

#include "cache/cache.hh"
#include "cache/direct.hh"
#include "cache/prime.hh"
#include "memory/interleaved.hh"
#include "sim/cc_sim.hh"
#include "util/flat_hash.hh"

namespace vcache
{

namespace
{

/** Per-lane timing state: everything a t_m can change. */
struct LaneState
{
    LaneState(const MachineParams &base, const GangLane &lane)
        : tm(lane.memoryTime),
          memory(base.bankBits, lane.memoryTime, base.bankMapping),
          cancel(lane.cancel)
    {
        // Exactly stripLoop's start-up arithmetic for this t_m: the
        // float math happens once per lane, not once per strip.
        MachineParams m = base;
        m.memoryTime = lane.memoryTime;
        const double base_startup =
            m.stripOverhead + m.startupTime();
        cold = static_cast<Cycles>(base_startup);
        warm = static_cast<Cycles>(
            base_startup - static_cast<double>(m.memoryTime));
    }

    Cycles clock = 0;
    Cycles stall = 0;
    Cycles cold = 0;
    Cycles warm = 0;
    std::uint64_t tm;
    InterleavedMemory memory;
    const CancelToken *cancel;
    bool dead = false;
    Errc errc = Errc::Cancelled;
};

/**
 * Shared events since the last clock-coupled one.  Every entry
 * advances each lane's clock by a per-lane constant, so the counts
 * flush into a lane as one multiply-add chain that lands on exactly
 * the value element-wise replay would have reached.
 */
struct PendingCounts
{
    std::uint64_t ops = 0;
    std::uint64_t coldStrips = 0;
    std::uint64_t warmStrips = 0;
    std::uint64_t hits = 0;
    std::uint64_t blocking = 0;

    bool
    any() const
    {
        return (ops | coldStrips | warmStrips | hits | blocking) != 0;
    }
};

template <typename CacheT>
std::vector<Expected<SimResult>>
runGang(const MachineParams &base, CacheT &cache, TraceSource &source,
        std::span<const GangLane> lanes)
{
    const Cycles block_overhead =
        static_cast<Cycles>(base.blockOverhead);

    std::vector<LaneState> states;
    states.reserve(lanes.size());
    for (const GangLane &lane : lanes)
        states.emplace_back(base, lane);
    std::size_t live = states.size();

    // Functional state, shared across every lane (see gang.hh).
    const AddressLayout &layout = cache.addressLayout();
    // Presized from the trace's read footprint so compulsory misses
    // never pay a rehash.
    FlatSet<Addr> touched;
    touched.reserve(source.readFootprint());
    SimResult shared;
    PendingCounts pend;

    auto flushAll = [&] {
        if (!pend.any())
            return;
        for (LaneState &l : states) {
            if (l.dead)
                continue;
            l.clock += pend.ops * block_overhead +
                       pend.coldStrips * l.cold +
                       pend.warmStrips * l.warm + pend.hits +
                       pend.blocking * (1 + l.tm);
            l.stall += pend.blocking * l.tm;
        }
        pend = PendingCounts{};
    };

    // Every lane's banks share the base machine's bank bits and
    // mapping, so one replica's bankOf() serves them all.
    const InterleavedMemory &bank_map = states.front().memory;

    // One element, mirroring CcSimulator::accessElement for the
    // no-prefetch, blocking-miss, uninstrumented configuration.
    auto access = [&](Addr addr) {
        const Addr line = layout.lineAddress(addr);
        const AccessOutcome outcome = probeLine(cache, line);
        cache.recordAccess(outcome, AccessType::Read);
        if (outcome.hit) {
            ++shared.hits;
            ++pend.hits;
            return;
        }
        ++shared.misses;
        if (touched.insert(line)) {
            // Compulsory: the pipelined load consults each lane's bank
            // horizon at that lane's own clock.  No read ever waits
            // for a bus without prefetching (see sim/cc_sim.hh), so
            // the lanes carry no bus state.
            ++shared.compulsoryMisses;
            flushAll();
            const std::uint64_t bank = bank_map.bankOf(addr);
            for (LaneState &l : states) {
                if (l.dead)
                    continue;
                const Cycles when = l.memory.issueAtBank(bank, l.clock);
                l.stall += when - l.clock;
                l.clock = when + 1;
            }
        } else {
            // Interference/capacity: a pure t_m stall, countable.
            ++pend.blocking;
        }
    };

    VectorOp op;
    while (live != 0 && source.next(op)) {
        for (LaneState &l : states) {
            if (l.dead || !l.cancel || !l.cancel->cancelled())
                continue;
            l.dead = true;
            l.errc = l.cancel->reason() == CancelToken::Reason::Timeout
                         ? Errc::Timeout
                         : Errc::Cancelled;
            --live;
        }
        if (live == 0)
            break;

        ++pend.ops;
        const VectorRef *second =
            op.second ? &op.second.value() : nullptr;
        const std::int64_t s1 = op.first.stride;
        const std::int64_t s2 = second ? second->stride : 0;

        for (std::uint64_t done = 0; done < op.first.length;
             done += base.mvl) {
            Addr a1 = op.first.element(done);
            if (containsWord(cache, a1))
                ++pend.warmStrips;
            else
                ++pend.coldStrips;
            const std::uint64_t count = std::min<std::uint64_t>(
                base.mvl, op.first.length - done);

            if (second) {
                Addr a2 = second->element(done);
                for (std::uint64_t i = 0; i < count; ++i) {
                    access(a1);
                    if (done + i < second->length)
                        access(a2);
                    ++shared.results;
                    a1 = static_cast<Addr>(
                        static_cast<std::int64_t>(a1) + s1);
                    a2 = static_cast<Addr>(
                        static_cast<std::int64_t>(a2) + s2);
                }
            } else {
                for (std::uint64_t i = 0; i < count; ++i) {
                    access(a1);
                    ++shared.results;
                    a1 = static_cast<Addr>(
                        static_cast<std::int64_t>(a1) + s1);
                }
            }
        }
    }
    flushAll();

    std::vector<Expected<SimResult>> out;
    out.reserve(states.size());
    for (const LaneState &l : states) {
        if (l.dead) {
            out.emplace_back(makeError(
                l.errc, l.errc == Errc::Timeout
                            ? "simulation exceeded the per-point "
                              "deadline"
                            : "simulation cancelled"));
            continue;
        }
        SimResult r = shared;
        r.stallCycles = l.stall;
        r.totalCycles = l.clock;
        out.emplace_back(r);
    }
    return out;
}

} // namespace

std::vector<Expected<SimResult>>
simulateCcGang(const MachineParams &base, const CacheConfig &config,
               TraceSource &source, std::span<const GangLane> lanes)
{
    if (lanes.empty())
        return {};
    const auto cache = makeCache(config);
    // The same devirtualization split as CcSimulator::run(): the
    // paper's two mappings compile to direct calls, everything else
    // probes through the virtual interface.
    Cache *ptr = cache.get();
    if (auto *direct = dynamic_cast<DirectMappedCache *>(ptr))
        return runGang(base, *direct, source, lanes);
    if (auto *prime = dynamic_cast<PrimeMappedCache *>(ptr))
        return runGang(base, *prime, source, lanes);
    return runGang(base, *ptr, source, lanes);
}

std::vector<Expected<SimResult>>
simulateCcGang(const MachineParams &base, CacheScheme scheme,
               TraceSource &source, std::span<const GangLane> lanes)
{
    return simulateCcGang(base, ccCacheConfig(base, scheme), source,
                          lanes);
}

} // namespace vcache
