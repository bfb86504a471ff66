#include "cache/replacement.hh"

#include <numeric>

#include "util/logging.hh"

namespace vcache
{

void
WayOrder::configure(std::uint64_t sets, unsigned w)
{
    ways = w;
    prev.assign(sets * ways, kNil);
    next.assign(sets * ways, kNil);
    head.assign(sets, kNil);
    tail.assign(sets, kNil);
    reset();
}

void
WayOrder::reset()
{
    if (ways == 0)
        return;
    std::vector<unsigned> order(ways);
    std::iota(order.begin(), order.end(), 0u);
    for (std::uint64_t set = 0; set < head.size(); ++set)
        link(set, order.data());
}

void
WayOrder::link(std::uint64_t set, const unsigned *order)
{
    const std::uint64_t base = set * ways;
    for (unsigned k = 0; k < ways; ++k) {
        prev[base + order[k]] = k == 0 ? kNil : order[k - 1];
        next[base + order[k]] = k + 1 == ways ? kNil : order[k + 1];
    }
    head[set] = order[0];
    tail[set] = order[ways - 1];
}

void
WayOrder::moveToBack(std::uint64_t set, unsigned way)
{
    if (tail[set] == way)
        return;
    const std::uint64_t base = set * ways;
    // Unlink: `way` is not the tail, so it has a next.
    const std::uint32_t p = prev[base + way];
    const std::uint32_t n = next[base + way];
    if (p == kNil)
        head[set] = n;
    else
        next[base + p] = n;
    prev[base + n] = p;
    // Append.
    prev[base + way] = tail[set];
    next[base + way] = kNil;
    next[base + tail[set]] = way;
    tail[set] = way;
}

void
WayOrder::rebuild(const std::vector<std::uint64_t> &stamps)
{
    if (ways == 0)
        return;
    std::vector<unsigned> order(ways);
    for (std::uint64_t set = 0; set < head.size(); ++set) {
        const std::uint64_t base = set * ways;
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
                             return stamps[base + a] < stamps[base + b];
                         });
        link(set, order.data());
    }
}

void
LruPolicy::configure(std::uint64_t sets, unsigned w)
{
    ways = w;
    lastUse.assign(sets * ways, 0);
    clock = 0;
    order.configure(sets, ways);
}

void
LruPolicy::touch(std::uint64_t set, unsigned way)
{
    lastUse[set * ways + way] = ++clock;
    order.moveToBack(set, way);
}

void
LruPolicy::fill(std::uint64_t set, unsigned way)
{
    touch(set, way);
}

unsigned
LruPolicy::victim(std::uint64_t set)
{
    return order.front(set);
}

void
LruPolicy::reset()
{
    std::fill(lastUse.begin(), lastUse.end(), 0);
    clock = 0;
    order.reset();
}

void
LruPolicy::captureState(std::vector<std::uint64_t> &out) const
{
    out.push_back(clock);
    out.insert(out.end(), lastUse.begin(), lastUse.end());
}

bool
LruPolicy::restoreState(const std::uint64_t *words, std::size_t n)
{
    if (n != stateWords())
        return false;
    clock = words[0];
    std::copy(words + 1, words + n, lastUse.begin());
    order.rebuild(lastUse);
    return true;
}

void
FifoPolicy::configure(std::uint64_t sets, unsigned w)
{
    ways = w;
    fillTime.assign(sets * ways, 0);
    clock = 0;
    order.configure(sets, ways);
}

void
FifoPolicy::touch(std::uint64_t, unsigned)
{
    // FIFO ignores hits.
}

void
FifoPolicy::fill(std::uint64_t set, unsigned way)
{
    fillTime[set * ways + way] = ++clock;
    order.moveToBack(set, way);
}

unsigned
FifoPolicy::victim(std::uint64_t set)
{
    return order.front(set);
}

void
FifoPolicy::reset()
{
    std::fill(fillTime.begin(), fillTime.end(), 0);
    clock = 0;
    order.reset();
}

void
FifoPolicy::captureState(std::vector<std::uint64_t> &out) const
{
    out.push_back(clock);
    out.insert(out.end(), fillTime.begin(), fillTime.end());
}

bool
FifoPolicy::restoreState(const std::uint64_t *words, std::size_t n)
{
    if (n != stateWords())
        return false;
    clock = words[0];
    std::copy(words + 1, words + n, fillTime.begin());
    order.rebuild(fillTime);
    return true;
}

RandomPolicy::RandomPolicy(std::uint64_t seed_value)
    : seed(seed_value), rng(seed_value)
{
}

void
RandomPolicy::configure(std::uint64_t, unsigned w)
{
    ways = w;
}

void
RandomPolicy::touch(std::uint64_t, unsigned)
{
}

void
RandomPolicy::fill(std::uint64_t, unsigned)
{
}

unsigned
RandomPolicy::victim(std::uint64_t)
{
    ++draws;
    return static_cast<unsigned>(rng.uniformInt(0, ways - 1));
}

void
RandomPolicy::reset()
{
    rng.seed(seed);
    draws = 0;
}

void
RandomPolicy::captureState(std::vector<std::uint64_t> &out) const
{
    out.push_back(rng.rawState());
    out.push_back(draws);
}

bool
RandomPolicy::restoreState(const std::uint64_t *words, std::size_t n)
{
    if (n != stateWords())
        return false;
    rng.setRawState(words[0]);
    draws = words[1];
    return true;
}

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplacementKind kind, std::uint64_t seed)
{
    switch (kind) {
      case ReplacementKind::Lru:
        return std::make_unique<LruPolicy>();
      case ReplacementKind::Fifo:
        return std::make_unique<FifoPolicy>();
      case ReplacementKind::Random:
        return std::make_unique<RandomPolicy>(seed);
    }
    vc_panic("unknown replacement policy");
}

std::string
replacementName(ReplacementKind kind)
{
    return makeReplacementPolicy(kind)->name();
}

} // namespace vcache
