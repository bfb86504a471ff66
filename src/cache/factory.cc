#include "cache/factory.hh"

#include <sstream>

#include "cache/mapped.hh"
#include "cache/set_assoc.hh"
#include "numtheory/mersenne.hh"
#include "util/logging.hh"

namespace vcache
{

namespace
{

/** Geometry checks mirroring every constructor assert, as errors. */
Expected<void>
checkGeometry(const CacheConfig &config)
{
    if (config.addressBits == 0 || config.addressBits > 64)
        return makeError(Errc::InvalidConfig,
                         "addressBits " +
                             std::to_string(config.addressBits) +
                             " is not in [1, 64]");
    if (config.offsetBits + config.indexBits > config.addressBits)
        return makeError(
            Errc::InvalidConfig,
            "offset (" + std::to_string(config.offsetBits) +
                ") + index (" + std::to_string(config.indexBits) +
                ") exceed the " + std::to_string(config.addressBits) +
                "-bit address");

    const bool prime =
        config.organization == Organization::PrimeMapped ||
        config.organization == Organization::PrimeSetAssociative;
    if (prime && !isMersenneExponent(config.indexBits))
        return makeError(Errc::InvalidConfig,
                         "prime organisations need a Mersenne index "
                         "width (2, 3, 5, 7, 13, ...); got " +
                             std::to_string(config.indexBits));

    const bool associative =
        config.organization == Organization::SetAssociative ||
        config.organization == Organization::PrimeSetAssociative;
    if (associative && config.associativity < 1)
        return makeError(Errc::InvalidConfig,
                         "associativity must be at least 1");
    if (config.organization == Organization::SetAssociative) {
        const std::uint64_t lines = std::uint64_t{1}
                                    << config.indexBits;
        if (lines % config.associativity != 0)
            return makeError(
                Errc::InvalidConfig,
                std::to_string(config.associativity) +
                    " ways do not divide " + std::to_string(lines) +
                    " lines");
    }
    return {};
}

} // namespace

Expected<std::unique_ptr<Cache>>
tryMakeCache(const CacheConfig &config)
{
    auto checked = checkGeometry(config);
    if (!checked.ok())
        return checked.error();
    return makeCache(config);
}

std::unique_ptr<Cache>
makeCache(const CacheConfig &config)
{
    const AddressLayout layout(config.offsetBits, config.indexBits,
                               config.addressBits);
    switch (config.organization) {
      case Organization::DirectMapped:
        return std::make_unique<DirectMappedCache>(layout);
      case Organization::PrimeMapped:
        return std::make_unique<PrimeMappedCache>(layout);
      case Organization::SetAssociative:
        return std::make_unique<SetAssociativeCache>(
            layout, config.associativity,
            makeReplacementPolicy(config.replacement, config.rngSeed));
      case Organization::FullyAssociative:
        return makeFullyAssociative(
            layout,
            makeReplacementPolicy(config.replacement, config.rngSeed));
      case Organization::XorMapped:
        return std::make_unique<XorMappedCache>(layout);
      case Organization::PrimeSetAssociative:
        return std::make_unique<SetAssociativeCache>(
            layout, config.associativity,
            makeReplacementPolicy(config.replacement, config.rngSeed),
            simd::IndexMap::Mersenne);
    }
    vc_panic("unknown cache organization");
}

std::string
organizationName(Organization organization)
{
    switch (organization) {
      case Organization::DirectMapped:
        return "direct-mapped";
      case Organization::SetAssociative:
        return "set-associative";
      case Organization::FullyAssociative:
        return "fully-associative";
      case Organization::PrimeMapped:
        return "prime-mapped";
      case Organization::XorMapped:
        return "xor-mapped";
      case Organization::PrimeSetAssociative:
        return "prime-set-associative";
    }
    vc_panic("unknown cache organization");
}

std::string
describe(const CacheConfig &config)
{
    std::uint64_t lines = std::uint64_t{1} << config.indexBits;
    if (config.organization == Organization::PrimeMapped)
        lines = mersenne(config.indexBits);
    if (config.organization == Organization::PrimeSetAssociative)
        lines = mersenne(config.indexBits) * config.associativity;
    std::ostringstream os;
    os << organizationName(config.organization) << "(" << lines
       << " lines x " << (std::uint64_t{1} << config.offsetBits)
       << " words";
    if (config.organization == Organization::SetAssociative ||
        config.organization == Organization::PrimeSetAssociative) {
        os << ", " << config.associativity << "-way "
           << replacementName(config.replacement);
    }
    if (config.organization == Organization::FullyAssociative)
        os << ", " << replacementName(config.replacement);
    os << ")";
    return os.str();
}

} // namespace vcache
