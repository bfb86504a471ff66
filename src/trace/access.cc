#include "trace/access.hh"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

namespace vcache
{

std::vector<Addr>
expand(const VectorRef &ref)
{
    std::vector<Addr> out;
    out.reserve(ref.length);
    for (std::uint64_t i = 0; i < ref.length; ++i)
        out.push_back(ref.element(i));
    return out;
}

std::uint64_t
loadedElements(const Trace &trace)
{
    std::uint64_t n = 0;
    for (const auto &op : trace) {
        n += op.first.length;
        if (op.second)
            n += op.second->length;
    }
    return n;
}

std::uint64_t
totalElements(const Trace &trace)
{
    std::uint64_t n = loadedElements(trace);
    for (const auto &op : trace)
        if (op.store)
            n += op.store->length;
    return n;
}

std::uint64_t
readFootprintBound(std::span<const VectorOp> ops)
{
    std::vector<VectorRef> refs;
    refs.reserve(2 * ops.size());
    for (const VectorOp &op : ops) {
        refs.push_back(op.first);
        if (op.second)
            refs.push_back(*op.second);
    }
    std::ranges::sort(refs, {}, [](const VectorRef &r) {
        return std::tuple(r.base, r.stride, r.length);
    });
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());

    const auto add = [](std::uint64_t a, std::uint64_t b) {
        constexpr std::uint64_t kMax =
            std::numeric_limits<std::uint64_t>::max();
        return a > kMax - b ? kMax : a + b;
    };
    std::uint64_t lengths = 0;
    std::vector<std::pair<Addr, Addr>> extents;
    extents.reserve(refs.size());
    bool wraps = false;
    for (const VectorRef &r : refs) {
        if (r.length == 0)
            continue;
        lengths = add(lengths, r.length);
        // A wrapping reference has no single extent; the summed
        // lengths alone then bound the footprint.
        wraps = wraps || !spansWithoutWrap(r.base, r.stride, r.length);
        const Addr a = r.element(0);
        const Addr b = r.element(r.length - 1);
        extents.emplace_back(std::min(a, b), std::max(a, b));
    }
    if (wraps)
        return lengths;

    std::sort(extents.begin(), extents.end());
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < extents.size();) {
        auto [lo, hi] = extents[i];
        for (++i; i < extents.size() && extents[i].first <= hi; ++i)
            hi = std::max(hi, extents[i].second);
        covered = add(covered, add(hi - lo, 1));
    }
    return std::min(lengths, covered);
}

std::vector<Addr>
flatten(const Trace &trace)
{
    std::vector<Addr> out;
    out.reserve(totalElements(trace));
    for (const auto &op : trace) {
        if (op.second) {
            const std::uint64_t n =
                std::max(op.first.length, op.second->length);
            for (std::uint64_t i = 0; i < n; ++i) {
                if (i < op.first.length)
                    out.push_back(op.first.element(i));
                if (i < op.second->length)
                    out.push_back(op.second->element(i));
            }
        } else {
            for (std::uint64_t i = 0; i < op.first.length; ++i)
                out.push_back(op.first.element(i));
        }
        if (op.store)
            for (std::uint64_t i = 0; i < op.store->length; ++i)
                out.push_back(op.store->element(i));
    }
    return out;
}

} // namespace vcache
