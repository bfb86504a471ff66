/**
 * @file
 * SMARTS-style systematic sampling for the trace-driven simulators.
 *
 * A long trace is split into contiguous *measurement units* of (at
 * least) a configurable number of vector elements.  Detailed timing
 * simulation runs only on a systematically sampled subset of units;
 * everything between them is *functionally warmed*: the vector cache
 * sees every access (hits, misses, replacement updates) but no clock,
 * bank or bus state is modelled.  Each sampled unit is entered
 * through a short *detailed-warming prefix* of the ops immediately
 * before it, which re-warms the (short-horizon) bank and bus timing
 * state that functional warming cannot carry.
 *
 * The state a sampled unit starts from is captured as a *live-point*:
 * the cache's complete tag/replacement snapshot
 * (Cache::captureState()) plus every already-touched line the unit's
 * window can re-touch (so compulsory-miss classification survives the
 * jump).  Live-points make units independent -- each is measured on
 * a freshly reset scratch simulator -- so they shard across a thread
 * pool with bit-identical results whatever the worker count, and can
 * be
 * serialized through the sim/checkpoint journal for inspection or
 * offline replay.
 *
 * The estimator is the ratio estimator of cluster sampling: with
 * per-unit cycles y_j and elements x_j over n of N units,
 * R = sum(y)/sum(x) estimates cycles-per-element, and the Student-t
 * confidence interval uses the residuals d_j = y_j - R x_j with a
 * finite-population correction.  Sampling starts at a rate of about
 * `initialUnits` units and doubles (halving the systematic stride,
 * which keeps earlier measurements valid -- the sample sets nest)
 * until the target relative half-width is met or the trace is
 * exhausted.  Because a periodic trace can alias with the systematic
 * stride (the sample looks uniform while the skipped phase differs),
 * an early stop additionally requires the previous, coarser round's
 * estimate to fall inside the current interval -- stride-k aliasing
 * is exposed at stride k/2, so at least two rounds always run.
 * The reported half-width is floored at `minRelativeCi`
 * as an allowance for non-sampling bias (the cold bank/bus horizon at
 * each live-point that the detailed prefix re-warms only after ~t_m
 * cycles).
 *
 * The MM-model machine carries no functional state at all, so its
 * sampler simply skips unsampled units; its speedup is the sampling
 * factor itself.  The CC sampler's functional walk is the CC walker
 * with zero timing lanes (sim/cc_walker.hh): it always takes the
 * walker's fast paths (cold pass, gang probe, run memo), so repeats
 * of an op are skipped once a memo tier certifies them.  The
 * element-wise reference it is pinned against is a solo
 * SimEngine::Scalar run
 * (CcWalkerFuzz.SampledWindowsSumToTheExactRun).  The measurement
 * windows run Auto: a solo walk holds the memo's certification back
 * until an op's third walk, so a window of two ops pays for the gang
 * probe only.
 */

#ifndef VCACHE_SIM_SAMPLING_HH
#define VCACHE_SIM_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analytic/machine.hh"
#include "cache/factory.hh"
#include "obs/registry.hh"
#include "sim/cancel.hh"
#include "sim/result.hh"
#include "trace/access.hh"
#include "util/result.hh"

namespace vcache
{

/** Knobs of the sampling engine. */
struct SamplingOptions
{
    /** Minimum vector elements per measurement unit. */
    std::uint64_t unitElements = 4096;

    /**
     * Detailed-warming prefix, in vector ops, before each unit.  One
     * op suffices for the paper machines: banks and buses stay busy
     * at most ~t_m cycles, far less than one vector op.
     */
    std::uint64_t warmupOps = 1;

    /** Stop once the CI half-width is within this fraction of R. */
    double targetRelativeCi = 0.03;

    /** Two-sided confidence level of the interval. */
    double confidence = 0.95;

    /** First round samples about this many units. */
    std::uint64_t initialUnits = 30;

    /**
     * Floor on the reported relative half-width: the allowance for
     * non-sampling bias (cold bank/bus horizons at live-points).
     */
    double minRelativeCi = 0.01;

    /** Worker threads for unit measurement; <= 1 runs inline. */
    unsigned jobs = 1;

    /** Seed of the systematic sample offset. */
    std::uint64_t seed = 1;

    /** CcSimulator::setNonBlockingMisses for the measured units. */
    bool nonBlocking = false;

    /**
     * When non-empty, serialize every captured live-point into this
     * sim/checkpoint journal (one recordDone per unit).
     */
    std::string livePointJournal;

    /** Optional cooperative cancellation. */
    const CancelToken *cancel = nullptr;

    /** Optional sampling.* counter sink. */
    ObsRegistry *registry = nullptr;
};

/** What the sampling engine reports. */
struct SamplingEstimate
{
    /** Ratio estimate R of cycles per vector element. */
    double cyclesPerElement = 0.0;

    /** Student-t CI half-width (cycles per element). */
    double ciHalfWidth = 0.0;

    /** ciHalfWidth / cyclesPerElement. */
    double relativeCi = 0.0;

    /** relativeCi <= the target when sampling stopped. */
    bool ciMet = false;

    std::uint64_t unitsTotal = 0;
    std::uint64_t unitsMeasured = 0;
    std::uint64_t elementsTotal = 0;
    std::uint64_t elementsMeasured = 0;

    /**
     * Elements the functional warmer walked or filled cold, rather
     * than answered in closed form or replayed from its run memo, as
     * a fraction of the trace (0 for the MM machine).
     */
    double warmingFraction = 0.0;

    /** Auto-tune rounds run (1 = first rate sufficed). */
    std::uint64_t rounds = 0;

    /** Summed detailed results of the measurement windows. */
    SimResult detailedTotals;
};

/** One measurement unit: ops [opBegin, opEnd) of the trace. */
struct SamplingUnit
{
    std::size_t opBegin = 0;
    std::size_t opEnd = 0;
    std::uint64_t elements = 0;
};

/**
 * Split a trace into contiguous units of at least `unit_elements`
 * vector elements (one op never splits; the tail unit may be short).
 */
std::vector<SamplingUnit> partitionUnits(const Trace &trace,
                                         std::uint64_t unit_elements);

/**
 * The serialized start state of one sampled unit: where the detailed
 * prefix begins (captureOp), the unit window, the cache snapshot at
 * captureOp, and the already-touched lines the prefix or window can
 * re-touch (compulsory-miss seeding; a superset of the actual
 * re-touches is harmless).  Bank and bus timing state is
 * intentionally absent -- the functional warmer cannot know it; the
 * detailed prefix re-warms it.
 */
struct LivePoint
{
    std::uint64_t unit = 0;
    std::size_t captureOp = 0;
    std::size_t unitBegin = 0;
    std::size_t unitEnd = 0;
    std::vector<std::uint64_t> cacheState;
    std::vector<Addr> prewarmedLines;
};

/** Encode a live-point as a checkpoint-journal row. */
std::vector<std::string> encodeLivePoint(const LivePoint &lp);

/** Decode a checkpoint-journal row (unit comes from the record key). */
Expected<LivePoint> decodeLivePoint(std::uint64_t unit,
                                    const std::vector<std::string> &row);

/**
 * Sampled estimate of the CC-model machine's cycles-per-element on
 * `trace`.  Fails with InvalidConfig on an empty trace or bad knobs;
 * Cancelled/Timeout propagate from the cancel token.
 */
Expected<SamplingEstimate> sampleCc(const MachineParams &machine,
                                    const CacheConfig &cache_config,
                                    const Trace &trace,
                                    const SamplingOptions &opts = {});

/** Sampled estimate for the cacheless MM-model machine. */
Expected<SamplingEstimate> sampleMm(const MachineParams &machine,
                                    const Trace &trace,
                                    const SamplingOptions &opts = {});

} // namespace vcache

#endif // VCACHE_SIM_SAMPLING_HH
