#include "core/configio.hh"

#include <cmath>

#include "core/defaults.hh"
#include "util/logging.hh"

namespace vcache
{

MachineParams
machineFromConfig(const KeyValueConfig &config)
{
    MachineParams m = paperMachineM64();
    m.mvl = config.getUint("machine.mvl", m.mvl);
    // A zero MVL strip-mines nothing (the simulators divide by it).
    if (m.mvl == 0)
        vc_fatal("machine.mvl must be at least 1");
    m.bankBits = static_cast<unsigned>(
        config.getUint("machine.bank_bits", m.bankBits));
    m.memoryTime = config.getUint("machine.memory_time", m.memoryTime);
    m.cacheIndexBits = static_cast<unsigned>(
        config.getUint("machine.cache_bits", m.cacheIndexBits));
    m.startupBase =
        config.getDouble("machine.startup_base", m.startupBase);
    // The simulators cast the start-up to an unsigned cycle count, and
    // their closed forms rest on every bank being free at each strip
    // start, which a negative start-up breaks.
    if (!std::isfinite(m.startupBase) || m.startupBase < 0)
        vc_fatal("machine.startup_base must be a finite, non-negative "
                 "cycle count (got ", m.startupBase, ")");
    const auto mapping =
        config.getString("machine.bank_mapping", "low-order");
    if (mapping == "low-order")
        m.bankMapping = BankMapping::LowOrder;
    else if (mapping == "skewed")
        m.bankMapping = BankMapping::Skewed;
    else if (mapping == "xor")
        m.bankMapping = BankMapping::XorHash;
    else if (mapping == "prime")
        m.bankMapping = BankMapping::PrimeModulo;
    else
        vc_fatal("unknown machine.bank_mapping '", mapping,
                 "' (low-order, skewed, xor, prime)");
    return m;
}

Organization
parseOrganization(const std::string &name)
{
    if (name == "direct")
        return Organization::DirectMapped;
    if (name == "prime")
        return Organization::PrimeMapped;
    if (name == "xor")
        return Organization::XorMapped;
    if (name == "assoc")
        return Organization::SetAssociative;
    if (name == "full")
        return Organization::FullyAssociative;
    if (name == "prime-assoc")
        return Organization::PrimeSetAssociative;
    vc_fatal("unknown cache organization '", name,
             "' (direct, prime, xor, assoc, full, prime-assoc)");
}

ReplacementKind
parseReplacement(const std::string &name)
{
    if (name == "lru")
        return ReplacementKind::Lru;
    if (name == "fifo")
        return ReplacementKind::Fifo;
    if (name == "random")
        return ReplacementKind::Random;
    vc_fatal("unknown replacement policy '", name,
             "' (lru, fifo, random)");
}

CacheConfig
cacheFromConfig(const KeyValueConfig &config)
{
    CacheConfig c;
    c.organization = parseOrganization(
        config.getString("cache.organization", "prime"));
    c.indexBits = static_cast<unsigned>(
        config.getUint("cache.bits",
                       config.getUint("machine.cache_bits", 13)));
    c.offsetBits = static_cast<unsigned>(
        config.getUint("cache.line_words_log2", 0));
    c.associativity =
        static_cast<unsigned>(config.getUint("cache.ways", 4));
    c.replacement =
        parseReplacement(config.getString("cache.replacement", "lru"));
    return c;
}

WorkloadParams
workloadFromConfig(const KeyValueConfig &config)
{
    WorkloadParams w = paperWorkload();
    w.blockingFactor = config.getDouble("workload.blocking_factor",
                                        w.blockingFactor);
    w.reuseFactor =
        config.getDouble("workload.reuse_factor", w.reuseFactor);
    w.pDoubleStream = config.getDouble("workload.p_double_stream",
                                       w.pDoubleStream);
    w.pStride1First =
        config.getDouble("workload.p_stride1", w.pStride1First);
    w.pStride1Second = config.getDouble("workload.p_stride1_second",
                                        w.pStride1First);
    w.totalData =
        config.getDouble("workload.total_data", w.totalData);
    return w;
}

} // namespace vcache
