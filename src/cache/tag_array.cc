#include "cache/tag_array.hh"

namespace vcache
{

void
TagArray::appendState(std::vector<std::uint64_t> &out) const
{
    const std::size_t n = tags_.size();
    const std::size_t valid = valid_count_;
    if (3 + 3 * valid < 2 + 2 * n) {
        out.reserve(out.size() + 3 + 3 * valid);
        out.push_back(kSparseState);
        out.push_back(n);
        out.push_back(valid);
        for (std::size_t i = 0; i < n; ++i) {
            if (!this->valid(i))
                continue;
            out.push_back(i);
            out.push_back(tags_[i]);
            out.push_back(flags(i));
        }
        return;
    }
    out.reserve(out.size() + 2 + 2 * n);
    out.push_back(kDenseState);
    out.push_back(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(lineOrZero(i));
        out.push_back(
            (static_cast<std::uint64_t>(flags(i)) << 1) |
            (this->valid(i) ? 1u : 0u));
    }
}

std::size_t
TagArray::stateWords(const std::uint64_t *words, std::size_t n) const
{
    if (n < 2 || words[1] != tags_.size())
        return 0;
    if (words[0] == kDenseState) {
        const std::size_t need = 2 + 2 * tags_.size();
        return n >= need ? need : 0;
    }
    if (words[0] == kSparseState) {
        if (n < 3 || words[2] > tags_.size())
            return 0;
        const std::size_t need =
            3 + 3 * static_cast<std::size_t>(words[2]);
        return n >= need ? need : 0;
    }
    return 0;
}

bool
TagArray::restoreState(const std::uint64_t *words, std::size_t n)
{
    if (stateWords(words, n) != n || n == 0)
        return false;
    if (words[0] == kSparseState) {
        const std::size_t valid = words[2];
        // Validate before mutating so a bad blob leaves the array
        // unchanged.
        for (std::size_t v = 0; v < valid; ++v)
            if (words[3 + 3 * v] >= tags_.size())
                return false;
        invalidateAll();
        for (std::size_t v = 0; v < valid; ++v) {
            const std::uint64_t f = words[3 + 3 * v];
            place(f, words[4 + 3 * v]);
            orFlags(f, static_cast<std::uint8_t>(words[5 + 3 * v]));
        }
        return true;
    }
    invalidateAll();
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        const std::uint64_t packed = words[3 + 2 * i];
        if ((packed & 1u) == 0)
            continue;
        place(i, words[2 + 2 * i]);
        orFlags(i, static_cast<std::uint8_t>(packed >> 1));
    }
    return true;
}

} // namespace vcache
