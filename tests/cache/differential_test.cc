/**
 * Differential tests: each optimised cache implementation against a
 * deliberately naive reference model, over long random and structured
 * traffic.  If the tag-array code ever diverges from "index = f(line
 * address); one line per frame", or the set-associative body from
 * "per set, an explicit recency (LRU) or fill (FIFO) list", these
 * fail.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cache/mapped.hh"
#include "cache/set_assoc.hh"
#include "numtheory/mersenne.hh"
#include "util/rng.hh"

namespace vcache
{
namespace
{

/** Naive single-line-per-frame cache model over any index function. */
class ReferenceModel
{
  public:
    /**
     * @param index_fn word address -> frame number
     * @param line_bits W: words sharing a line (hit granularity)
     */
    template <typename IndexFn>
    ReferenceModel(IndexFn &&index_fn, unsigned line_bits)
        : indexOf(index_fn), w(line_bits)
    {
    }

    /** Returns hit?, mirroring Cache::access on word addresses. */
    bool
    access(Addr word)
    {
        const auto frame = indexOf(word);
        const Addr line = word >> w;
        const auto it = frames.find(frame);
        const bool hit = it != frames.end() && it->second == line;
        frames[frame] = line;
        return hit;
    }

  private:
    std::function<std::uint64_t(Addr)> indexOf;
    unsigned w;
    std::map<std::uint64_t, Addr> frames;
};

template <typename MakeCache, typename IndexFn>
void
differentialRun(MakeCache &&make, IndexFn &&index_fn,
                std::uint64_t seed, unsigned line_bits = 0)
{
    auto cache = make();
    ReferenceModel reference(index_fn, line_bits);
    Rng rng(seed);

    for (int i = 0; i < 50000; ++i) {
        Addr a;
        switch (rng.uniformInt(0, 2)) {
          case 0: // uniform random
            a = rng.uniformInt(0, 1u << 20);
            break;
          case 1: // strided walk
            a = rng.uniformInt(0, 64) +
                rng.uniformInt(0, 4096) * rng.uniformInt(1, 4096);
            break;
          default: // hot region
            a = rng.uniformInt(0, 300);
            break;
        }
        const bool hit = cache->access(a).hit;
        EXPECT_EQ(hit, reference.access(a))
            << "step " << i << " addr " << a;
    }
}

TEST(Differential, DirectMappedMatchesReference)
{
    const AddressLayout layout(0, 13, 32);
    differentialRun(
        [&] { return std::make_unique<DirectMappedCache>(layout); },
        [](Addr line) { return line & 8191; }, 1);
}

TEST(Differential, PrimeMappedMatchesReference)
{
    const AddressLayout layout(0, 13, 32);
    differentialRun(
        [&] { return std::make_unique<PrimeMappedCache>(layout); },
        [](Addr line) { return line % 8191; }, 2);
}

TEST(Differential, XorMappedMatchesReference)
{
    const AddressLayout layout(0, 13, 32);
    differentialRun(
        [&] { return std::make_unique<XorMappedCache>(layout); },
        [](Addr line) {
            std::uint64_t h = 0;
            for (Addr w = line; w != 0; w >>= 13)
                h ^= w & 8191;
            return h;
        },
        3);
}

TEST(Differential, PrimeMappedWithWideLines)
{
    // W = 2: the frame index is the residue of the *line* address.
    const AddressLayout layout(2, 13, 32);
    differentialRun(
        [&] { return std::make_unique<PrimeMappedCache>(layout); },
        [](Addr word) { return (word >> 2) % 8191; }, 4, 2);
}

/** Naive N-way set model: each set an explicit list of its lines. */
class SetReference
{
  public:
    /**
     * @param set_of line address -> set number
     * @param lru true: the list is in recency order (a hit moves the
     *        line to the back); false: fill order (FIFO ignores hits).
     *        Either way the front is the next victim.
     */
    SetReference(std::function<std::uint64_t(Addr)> set_of,
                 unsigned ways_per_set, bool recency_order)
        : setOf(std::move(set_of)), ways(ways_per_set),
          lru(recency_order)
    {
    }

    /** Cache::lookupAndFill on a line address. */
    AccessOutcome
    access(Addr line)
    {
        std::vector<Addr> &list = sets[setOf(line)];
        const auto it = std::find(list.begin(), list.end(), line);
        if (it != list.end()) {
            if (lru) {
                list.erase(it);
                list.push_back(line);
            }
            return {true, false, 0, 0};
        }
        AccessOutcome out{false, false, 0, 0};
        if (list.size() == ways) {
            out.evicted = true;
            out.evictedLine = list.front();
            list.erase(list.begin());
        }
        list.push_back(line);
        return out;
    }

  private:
    std::function<std::uint64_t(Addr)> setOf;
    unsigned ways;
    bool lru;
    std::map<std::uint64_t, std::vector<Addr>> sets;
};

/**
 * Long mixed line traffic: uniform random lines, constant-stride runs
 * (unit, power-of-two, odd and cache-size strides, some re-walked)
 * and a hot region, over a span a few times the cache size.
 */
std::vector<Addr>
mixedTraffic(std::uint64_t span, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> out;
    while (out.size() < 40000) {
        switch (rng.uniformInt(0, 2)) {
          case 0:
            for (int i = 0; i < 16; ++i)
                out.push_back(rng.uniformInt(0, span));
            break;
          case 1: {
            const std::uint64_t strides[] = {
                1, 2, 8, 64, 127, 128, 3, 255,
                static_cast<std::uint64_t>(rng.uniformInt(1, 1000))};
            const std::uint64_t stride = strides[rng.uniformInt(0, 8)];
            const Addr base = rng.uniformInt(0, span);
            const std::uint64_t length = rng.uniformInt(1, 96);
            const int passes = static_cast<int>(rng.uniformInt(1, 3));
            for (int pass = 0; pass < passes; ++pass)
                for (std::uint64_t i = 0; i < length; ++i)
                    out.push_back(base + i * stride);
            break;
          }
          default:
            for (int i = 0; i < 16; ++i)
                out.push_back(rng.uniformInt(0, 40));
            break;
        }
    }
    return out;
}

/** Hit, eviction and evicted line of every access must agree. */
template <typename Model>
void
expectSameOutcomes(Cache &cache, Model &model,
                   const std::vector<Addr> &traffic)
{
    for (std::size_t i = 0; i < traffic.size(); ++i) {
        const AccessOutcome got = cache.lookupAndFill(traffic[i]);
        const AccessOutcome want = model.access(traffic[i]);
        ASSERT_EQ(got.hit, want.hit)
            << cache.name() << " step " << i << " line " << traffic[i];
        ASSERT_EQ(got.evicted, want.evicted)
            << cache.name() << " step " << i << " line " << traffic[i];
        if (want.evicted) {
            ASSERT_EQ(got.evictedLine, want.evictedLine)
                << cache.name() << " step " << i;
        }
    }
}

/**
 * expectSameOutcomes() over the first half of the traffic, then over
 * the second half on a fresh cache restored from the first's
 * captureState(): a restored cache must answer as the original would.
 */
template <typename MakeCache, typename Model>
void
expectSameOutcomesAcrossRestore(MakeCache &&make, Model &model,
                                const std::vector<Addr> &traffic)
{
    const auto half = traffic.begin() + traffic.size() / 2;
    const auto cache = make();
    expectSameOutcomes(*cache, model, {traffic.begin(), half});
    std::vector<std::uint64_t> state;
    cache->captureState(state);
    const auto restored = make();
    ASSERT_TRUE(restored->restoreState(state));
    expectSameOutcomes(*restored, model, {half, traffic.end()});
}

struct SetAssocCase
{
    simd::IndexMap sets;
    unsigned ways;
    ReplacementKind replacement;
};

std::string
caseName(const SetAssocCase &c)
{
    return std::string(c.sets == simd::IndexMap::Mersenne ? "Prime"
                                                           : "Pow2") +
           std::to_string(c.ways) + "Way" + replacementName(c.replacement);
}

void
PrintTo(const SetAssocCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class SetAssocDifferential : public testing::TestWithParam<SetAssocCase>
{
};

TEST_P(SetAssocDifferential, MatchesPerSetListModel)
{
    const SetAssocCase &param = GetParam();
    const auto make = [&] {
        return std::make_unique<SetAssociativeCache>(
            AddressLayout(0, 7, 32), param.ways,
            makeReplacementPolicy(param.replacement), param.sets);
    };
    const std::uint64_t sets = make()->numSets();
    const std::uint64_t lines = make()->numLines();
    const bool prime = param.sets == simd::IndexMap::Mersenne;
    SetReference model(
        [=](Addr line) { return prime ? line % 127 : line % sets; },
        param.ways, param.replacement == ReplacementKind::Lru);
    expectSameOutcomesAcrossRestore(
        make, model, mixedTraffic(4 * lines, param.ways * 10 + prime));
}

std::vector<SetAssocCase>
setAssocCases()
{
    std::vector<SetAssocCase> out;
    for (const auto sets :
         {simd::IndexMap::Mask, simd::IndexMap::Mersenne})
        for (const unsigned ways : {1u, 2u, 4u, 8u, 64u})
            for (const auto kind :
                 {ReplacementKind::Lru, ReplacementKind::Fifo})
                out.push_back({sets, ways, kind});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocDifferential, testing::ValuesIn(setAssocCases()),
    [](const testing::TestParamInfo<SetAssocCase> &info) {
        return caseName(info.param);
    });

TEST(Differential, FullyAssociativeMatchesListModel)
{
    // 4 to 32 ways scan their set; 128 ways take the line-to-frame map.
    for (const unsigned bits : {2u, 3u, 5u, 7u}) {
        for (const auto kind :
             {ReplacementKind::Lru, ReplacementKind::Fifo}) {
            const auto make = [&] {
                return makeFullyAssociative(AddressLayout(0, bits, 32),
                                            makeReplacementPolicy(kind));
            };
            SetReference model([](Addr) { return 0; }, 1u << bits,
                               kind == ReplacementKind::Lru);
            expectSameOutcomesAcrossRestore(
                make, model, mixedTraffic(4u << bits, bits));
        }
    }
}

/** Adapts a one-way mapped cache to the reference-model interface. */
struct MappedModel
{
    Cache &cache;
    AccessOutcome access(Addr line) { return cache.lookupAndFill(line); }
};

TEST(Differential, OneWaySetAssocIsDirectMapped)
{
    const AddressLayout layout(0, 7, 32);
    SetAssociativeCache assoc(layout, 1, std::make_unique<LruPolicy>());
    DirectMappedCache direct(layout);
    MappedModel model{direct};
    expectSameOutcomes(assoc, model, mixedTraffic(512, 5));
}

TEST(Differential, OneWayPrimeSetAssocIsPrimeMapped)
{
    const AddressLayout layout(0, 7, 32);
    SetAssociativeCache assoc(layout, 1, std::make_unique<LruPolicy>(),
                              simd::IndexMap::Mersenne);
    PrimeMappedCache prime(layout);
    MappedModel model{prime};
    expectSameOutcomes(assoc, model, mixedTraffic(512, 6));
}

} // namespace
} // namespace vcache
