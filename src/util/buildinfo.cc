#include "util/buildinfo.hh"

#include <atomic>

#include "util/buildinfo_gen.hh"

namespace vcache
{

namespace
{

std::atomic<const char *(*)()> g_simd_provider{nullptr};

} // namespace

const char *
buildGitHash()
{
    return VCACHE_BUILD_GIT_HASH[0] != '\0' ? VCACHE_BUILD_GIT_HASH
                                            : "unknown";
}

const char *
buildTypeName()
{
    return VCACHE_BUILD_TYPE[0] != '\0' ? VCACHE_BUILD_TYPE : "unknown";
}

const char *
buildCompiler()
{
    return VCACHE_BUILD_COMPILER;
}

const char *
buildCxxFlags()
{
    return VCACHE_BUILD_CXX_FLAGS;
}

void
setBuildInfoSimdProvider(const char *(*provider)())
{
    g_simd_provider.store(provider, std::memory_order_release);
}

const char *
buildInfoSimdBackend()
{
    if (const auto provider =
            g_simd_provider.load(std::memory_order_acquire))
        return provider();
    return "unknown";
}

std::string
buildInfoString()
{
    std::string out = "vcache ";
    out += buildGitHash();
    out += " (";
    out += buildTypeName();
    out += ", simd=";
    out += buildInfoSimdBackend();
    out += ")";
    return out;
}

std::string
buildResultIdentity()
{
    std::string out = buildGitHash();
    out += ":";
    out += buildTypeName();
    return out;
}

} // namespace vcache
