/**
 * @file
 * Execution-engine selector for the trace-driven simulators.
 *
 * Auto lets a simulator take every exact fast path it has: the MM
 * machine fast-forwards constant-stride tails in closed form; the CC
 * walker gang-probes strips through the SIMD kernels and replays
 * repeated ops from its run memo; a sweep batches shared-workload
 * points into gang lanes.  Scalar takes none of them: it walks every
 * element of every point alone, and is the one element-wise oracle
 * the differential tests and CI diff every fast path against.
 * Instrumented runs (any observer with kEnabled == true) always
 * replay element-wise regardless of this knob: a batched pass
 * resolves thousands of accesses without visiting them, so there
 * would be no per-element events to report.
 */

#ifndef VCACHE_SIM_ENGINE_HH
#define VCACHE_SIM_ENGINE_HH

#include <optional>
#include <string_view>

namespace vcache
{

/** How a simulator executes vector operations. */
enum class SimEngine
{
    /** Take every exact fast path; walk the rest element-wise. */
    Auto,
    /** Element-wise replay only: the reference oracle. */
    Scalar,
    /**
     * SMARTS-style systematic sampling: simulate detailed timing only
     * on sampled measurement units, functionally warm the cache
     * between them, and report cycles-per-element with a confidence
     * interval.  Handled by sim/sampling.hh, which drives the
     * simulators (in Auto mode) over per-unit trace slices; the
     * simulators themselves treat Sampled like Auto.
     */
    Sampled,
};

/** Stable lower-case name, for CLI flags and report labels. */
constexpr std::string_view
simEngineName(SimEngine engine)
{
    switch (engine) {
      case SimEngine::Scalar:
        return "scalar";
      case SimEngine::Sampled:
        return "sampled";
      default:
        return "auto";
    }
}

/** Parse a CLI spelling; nullopt when unrecognized. */
inline std::optional<SimEngine>
parseSimEngine(std::string_view text)
{
    if (text == "auto")
        return SimEngine::Auto;
    if (text == "scalar")
        return SimEngine::Scalar;
    if (text == "sampled")
        return SimEngine::Sampled;
    return std::nullopt;
}

} // namespace vcache

#endif // VCACHE_SIM_ENGINE_HH
