/**
 * @file
 * Build identity: git hash, build type, compiler and flags, and the
 * active SIMD backend.
 *
 * One string answers "which binary is this?" everywhere it matters:
 * `--version` on every ArgParser-driven tool, the serve handshake,
 * and the memo store's journal label (a memo entry computed by one
 * build must not be served by an incompatible one -- see
 * docs/SERVING.md).
 *
 * The git hash, build type, compiler and flags are stamped at CMake
 * configure time (util/buildinfo_gen.hh); a source tree built without
 * reconfiguring after new commits reports the configure-time hash.  The SIMD
 * backend is resolved at runtime by simd/dispatch.cc, which registers
 * a provider here during static initialization -- util cannot link
 * against simd (simd sits above util), so the name arrives through
 * this one-way hook and reads "unknown" in a binary that never links
 * the dispatcher.
 */

#ifndef VCACHE_UTIL_BUILDINFO_HH
#define VCACHE_UTIL_BUILDINFO_HH

#include <string>

namespace vcache
{

/** Abbreviated git commit the build was configured from. */
const char *buildGitHash();

/** CMake build type ("Release", "RelWithDebInfo", ...). */
const char *buildTypeName();

/** Compiler id and version ("GNU 12.2.0", ...). */
const char *buildCompiler();

/** Effective C++ flags: CMAKE_CXX_FLAGS, the build type's flags and
 *  the compile options every target gets. */
const char *buildCxxFlags();

/**
 * Register the lazy SIMD-backend-name provider (called by
 * simd/dispatch.cc at static init; tests may override).
 */
void setBuildInfoSimdProvider(const char *(*provider)());

/** Active SIMD backend name, or "unknown" without a provider. */
const char *buildInfoSimdBackend();

/** "vcache <hash> (<build type>, simd=<backend>)" -- the --version
 *  line and the serve handshake's build field. */
std::string buildInfoString();

/**
 * Compact result-compatibility identity for the memo store:
 * "<hash>:<build type>".  Deliberately excludes the SIMD backend --
 * every backend is differentially pinned to produce bit-identical
 * SimResults, so a memo written under AVX2 is valid under scalar
 * dispatch, and including the backend would needlessly cold-start
 * the store whenever a journal moves between hosts.
 */
std::string buildResultIdentity();

} // namespace vcache

#endif // VCACHE_UTIL_BUILDINFO_HH
