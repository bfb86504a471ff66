/**
 * Runtime backend selection.  All backends are compiled into every
 * build; exactly one is active at a time.  Selection order:
 *
 *   1. VCACHE_SIMD=scalar|avx2|neon in the environment (startup);
 *   2. setActiveBackend() (tests and tools, any time);
 *   3. otherwise the best backend the host can actually run,
 *      probed via __builtin_cpu_supports -- never the build flags.
 *
 * An unknown or unavailable VCACHE_SIMD value falls back to the probe
 * with a one-line warning rather than dying: a pinned environment
 * must not make the simulator unrunnable on a lesser host.
 */

#include "simd/kernels.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/buildinfo.hh"

namespace vcache::simd
{

namespace
{

/**
 * Tell util/buildinfo how to name the active backend.  util sits
 * below simd and cannot call the dispatcher directly; registering a
 * lazy provider here (any binary that links the dispatcher pulls this
 * TU, running the registration before main) keeps the dependency
 * one-way while --version and the serve handshake still report the
 * backend the process actually dispatches to.
 */
[[maybe_unused]] const bool g_build_info_registered = [] {
    setBuildInfoSimdProvider(
        +[]() { return backendName(activeBackend()); });
    return true;
}();

bool
hostRunsAvx2()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

const Kernels *
tableFor(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return &scalarKernels();
      case Backend::Avx2:
        return hostRunsAvx2() ? avx2Kernels() : nullptr;
      case Backend::Neon:
        return neonKernels();
    }
    return nullptr;
}

const Kernels *
probeBest()
{
    if (const Kernels *k = tableFor(Backend::Avx2))
        return k;
    if (const Kernels *k = tableFor(Backend::Neon))
        return k;
    return &scalarKernels();
}

const Kernels *
initialTable()
{
    if (const char *env = std::getenv("VCACHE_SIMD")) {
        Backend want;
        if (parseBackend(env, want)) {
            if (const Kernels *k = tableFor(want))
                return k;
            std::fprintf(stderr,
                         "vcache: VCACHE_SIMD=%s unavailable on this "
                         "host/build; using %s\n",
                         env, probeBest()->name);
        } else if (*env != '\0') {
            std::fprintf(stderr,
                         "vcache: unknown VCACHE_SIMD=%s (expected "
                         "scalar|avx2|neon); using %s\n",
                         env, probeBest()->name);
        }
    }
    return probeBest();
}

std::atomic<const Kernels *> &
activeTable()
{
    static std::atomic<const Kernels *> table{initialTable()};
    return table;
}

} // namespace

const Kernels &
kernels()
{
    return *activeTable().load(std::memory_order_acquire);
}

Backend
activeBackend()
{
    return kernels().backend;
}

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return "scalar";
      case Backend::Avx2:
        return "avx2";
      case Backend::Neon:
        return "neon";
    }
    return "unknown";
}

std::vector<Backend>
availableBackends()
{
    std::vector<Backend> out;
    for (Backend b : {Backend::Avx2, Backend::Neon}) {
        if (tableFor(b) != nullptr)
            out.push_back(b);
    }
    out.push_back(Backend::Scalar);
    return out;
}

bool
setActiveBackend(Backend b)
{
    const Kernels *k = tableFor(b);
    if (k == nullptr)
        return false;
    activeTable().store(k, std::memory_order_release);
    return true;
}

bool
parseBackend(const char *name, Backend &out)
{
    if (name == nullptr)
        return false;
    if (std::strcmp(name, "scalar") == 0) {
        out = Backend::Scalar;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        out = Backend::Avx2;
        return true;
    }
    if (std::strcmp(name, "neon") == 0) {
        out = Backend::Neon;
        return true;
    }
    return false;
}

} // namespace vcache::simd
