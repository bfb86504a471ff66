#include "cache/set_assoc.hh"

#include "numtheory/mersenne.hh"
#include "util/logging.hh"

namespace vcache
{

namespace
{

/** Set count of the geometry, asserting it is well formed. */
std::uint64_t
setCount(const AddressLayout &layout, unsigned ways, simd::IndexMap map)
{
    vc_assert(ways >= 1, "associativity must be at least 1");
    vc_assert(map == simd::IndexMap::Mask ||
                  map == simd::IndexMap::Mersenne,
              "set index map must be Mask or Mersenne");
    if (map == simd::IndexMap::Mersenne) {
        vc_assert(isMersenneExponent(layout.indexBits()),
                  "2^", layout.indexBits(),
                  " - 1 is not a Mersenne prime; pick c from "
                  "{2,3,5,7,13,17,19,31}");
        return mersenne(layout.indexBits());
    }
    const std::uint64_t lines = std::uint64_t{1} << layout.indexBits();
    vc_assert(lines % ways == 0,
              "associativity ", ways, " does not divide ", lines,
              " lines");
    return lines / ways;
}

} // namespace

SetAssociativeCache::SetAssociativeCache(
    const AddressLayout &layout, unsigned ways,
    std::unique_ptr<ReplacementPolicy> policy, simd::IndexMap sets)
    : Cache(layout, std::to_string(ways) +
                        (sets == simd::IndexMap::Mersenne
                             ? "-way prime set-assoc"
                             : "-way set-assoc")),
      map_(sets), ways_(ways), sets_(setCount(layout, ways, sets)),
      tags_(sets_ * ways), policy_(std::move(policy))
{
    vc_assert(tags_.size() <= ~std::uint32_t{0},
              "too many frames for a 32-bit frame index");
    policy_->configure(sets_, ways_);
}

std::uint64_t
SetAssociativeCache::setOf(Addr line_addr) const
{
    if (map_ == simd::IndexMap::Mersenne)
        return modMersenne(line_addr, layout_.indexBits());
    return line_addr & (sets_ - 1);
}

std::uint64_t
SetAssociativeCache::findFrame(std::uint64_t set, Addr line_addr) const
{
    if (ways_ > kScanWays) {
        const std::uint32_t *f = where_.find(line_addr);
        return f ? *f : kNoFrame;
    }
    const std::uint64_t first = set * ways_;
    for (std::uint64_t f = first; f < first + ways_; ++f)
        if (tags_.resident(f, line_addr))
            return f;
    return kNoFrame;
}

void
SetAssociativeCache::place(std::uint64_t f, Addr line_addr)
{
    if (ways_ > kScanWays) {
        if (tags_.valid(f))
            where_.erase(tags_.line(f));
        where_.insertOrAssign(line_addr, static_cast<std::uint32_t>(f));
    }
    tags_.place(f, line_addr);
}

AccessOutcome
SetAssociativeCache::lookupAndFill(Addr line_addr)
{
    const std::uint64_t set = setOf(line_addr);
    const std::uint64_t first = set * ways_;
    const std::uint64_t hit = findFrame(set, line_addr);
    if (hit != kNoFrame) {
        policy_->touch(set, static_cast<unsigned>(hit - first));
        return {true, false, 0, 0};
    }

    // Fill the first invalid way if one exists.  Ways are only ever
    // invalidated all at once, so a full cache skips the scan.
    if (tags_.validCount() < tags_.size()) {
        for (unsigned w = 0; w < ways_; ++w) {
            if (!tags_.valid(first + w)) {
                place(first + w, line_addr);
                policy_->fill(set, w);
                return {false, false, 0, 0};
            }
        }
    }

    // Evict.
    const unsigned w = policy_->victim(set);
    vc_assert(w < ways_, "replacement policy chose way ", w,
              " of ", ways_);
    const std::uint64_t f = first + w;
    const AccessOutcome outcome{false, true, tags_.line(f),
                                tags_.flags(f)};
    place(f, line_addr);
    policy_->fill(set, w);
    return outcome;
}

bool
SetAssociativeCache::containsLine(Addr line_addr) const
{
    return findFrame(line_addr) != kNoFrame;
}

void
SetAssociativeCache::setLineFlag(Addr line_addr, std::uint8_t flag)
{
    const std::uint64_t f = findFrame(line_addr);
    if (f != kNoFrame)
        tags_.orFlags(f, flag);
}

bool
SetAssociativeCache::testLineFlag(Addr line_addr,
                                  std::uint8_t flag) const
{
    const std::uint64_t f = findFrame(line_addr);
    return f != kNoFrame && (tags_.flags(f) & flag) == flag;
}

bool
SetAssociativeCache::clearLineFlag(Addr line_addr, std::uint8_t flag)
{
    const std::uint64_t f = findFrame(line_addr);
    if (f != kNoFrame && (tags_.flags(f) & flag)) {
        tags_.clearFlags(f, flag);
        return true;
    }
    return false;
}

void
SetAssociativeCache::reset()
{
    Cache::reset();
    tags_.invalidateAll();
    where_.clear();
    policy_->reset();
}

bool
SetAssociativeCache::appendRunState(
    Addr base, std::int64_t stride, std::uint64_t length,
    std::vector<std::uint64_t> &out) const
{
    if (length == 0)
        return true;
    // For one-word lines the gcd period bounds the walk to each
    // touched set exactly once.  A power-of-two set count survives
    // 2^64 wraparound; the prime modulus is only periodic over the
    // true integer progression.  Other runs serialize every element.
    std::uint64_t distinct = length;
    if (layout_.offsetBits() == 0 &&
        (map_ == simd::IndexMap::Mask ||
         spansWithoutWrap(base, stride, length))) {
        const std::uint64_t period = steadyRunPeriod(sets_, stride);
        if (period < distinct)
            distinct = period;
    }
    for (std::uint64_t r = 0; r < distinct; ++r) {
        const Addr addr = static_cast<Addr>(
            static_cast<std::int64_t>(base) +
            stride * static_cast<std::int64_t>(r));
        const std::uint64_t set = setOf(layout_.lineAddress(addr));
        out.push_back(set);
        for (std::uint64_t f = set * ways_; f < (set + 1) * ways_; ++f) {
            out.push_back(tags_.valid(f));
            out.push_back(tags_.lineOrZero(f));
            out.push_back(tags_.flags(f));
        }
        appendReplacementRanks(*policy_, set, ways_, out);
    }
    out.push_back(policy_->stateToken());
    return true;
}

void
SetAssociativeCache::captureState(
    std::vector<std::uint64_t> &out) const
{
    tags_.appendState(out);
    policy_->captureState(out);
}

bool
SetAssociativeCache::restoreState(
    const std::vector<std::uint64_t> &blob)
{
    const std::size_t fw = tags_.stateWords(blob.data(), blob.size());
    if (fw == 0 || blob.size() != fw + policy_->stateWords())
        return false;
    if (!tags_.restoreState(blob.data(), fw))
        return false;
    where_.clear();
    if (ways_ > kScanWays)
        for (std::uint64_t f = 0; f < tags_.size(); ++f)
            if (tags_.valid(f))
                where_.insertOrAssign(tags_.line(f),
                                      static_cast<std::uint32_t>(f));
    return policy_->restoreState(blob.data() + fw, blob.size() - fw);
}

std::unique_ptr<SetAssociativeCache>
makeFullyAssociative(const AddressLayout &layout,
                     std::unique_ptr<ReplacementPolicy> policy)
{
    const auto lines =
        static_cast<unsigned>(std::uint64_t{1} << layout.indexBits());
    return std::make_unique<SetAssociativeCache>(layout, lines,
                                                 std::move(policy));
}

} // namespace vcache
