/**
 * @file
 * The seven cache configurations the CC differential suites sweep:
 * every organization the library ships, plus random replacement and
 * multi-word lines as extra stress for the run memo.
 */

#ifndef VCACHE_TESTS_SIM_CACHE_SCHEMES_HH
#define VCACHE_TESTS_SIM_CACHE_SCHEMES_HH

#include <string>
#include <utility>
#include <vector>

#include "cache/factory.hh"

namespace vcache
{

/**
 * @param index_bits index width of every configuration (2^c lines, or
 *                   sets; the prime organizations need 2^c - 1 prime)
 */
inline std::vector<std::pair<std::string, CacheConfig>>
allSchemes(unsigned index_bits = 13)
{
    std::vector<std::pair<std::string, CacheConfig>> out;

    CacheConfig direct;
    direct.indexBits = index_bits;
    out.emplace_back("direct", direct);

    CacheConfig prime = direct;
    prime.organization = Organization::PrimeMapped;
    out.emplace_back("prime", prime);

    CacheConfig prime_assoc = direct;
    prime_assoc.organization = Organization::PrimeSetAssociative;
    prime_assoc.associativity = 2;
    out.emplace_back("prime-assoc", prime_assoc);

    CacheConfig set_assoc = direct;
    set_assoc.organization = Organization::SetAssociative;
    set_assoc.associativity = 4;
    out.emplace_back("set-assoc", set_assoc);

    CacheConfig xor_mapped = direct;
    xor_mapped.organization = Organization::XorMapped;
    out.emplace_back("xor", xor_mapped);

    // Extra stress for the snapshot tier: random replacement (whose
    // RNG draw counter must veto extrapolation) and multi-word lines
    // (which the closed-form tier must refuse).
    CacheConfig random_assoc = set_assoc;
    random_assoc.replacement = ReplacementKind::Random;
    out.emplace_back("set-assoc-random", random_assoc);

    CacheConfig wide_lines = direct;
    wide_lines.offsetBits = 2;
    out.emplace_back("direct-4word", wide_lines);

    return out;
}

} // namespace vcache

#endif // VCACHE_TESTS_SIM_CACHE_SCHEMES_HH
