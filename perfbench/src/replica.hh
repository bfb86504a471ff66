/**
 * @file
 * Decomposed evaluation for the traced run.
 *
 * evaluatePoint() and evaluateBatch() are single public calls, so a
 * span around them sees one layer.  The traced run instead calls the
 * same public functions they are built from -- buildTraceArena, the
 * analytic model, simulateMm, simulateCc, simulateCcGang -- in the
 * same order, with a span around each.  The results must equal the
 * public calls' bit for bit; the benchmark checks that on every run.
 *
 * Any change to how src/sim/evaluate.cc reaches a result must be made
 * here too.  Equal answers do not show that the replica still takes the
 * program's path, so a traced run is also marked invalid when the
 * replica's time per point strays from the public call's by more than
 * TRACE_OVERHEAD_LIMIT (perfbench/run.py).
 */

#ifndef PERFBENCH_REPLICA_HH
#define PERFBENCH_REPLICA_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/evaluate.hh"
#include "spans.hh"

namespace perfbench
{

/** Work counts the traced run divides layer times by. */
struct WorkCounts
{
    std::uint64_t points = 0;
    /** Points whose CC runs went through gang lanes. */
    std::uint64_t gangPoints = 0;
    /** Trace arenas built (one per group). */
    std::uint64_t arenas = 0;
    /** Element accesses (loads + stores) in the arenas built. */
    std::uint64_t arenaElements = 0;
    /** Result elements (first-stream loads) the MM machine produced. */
    std::uint64_t mmResults = 0;
    /** Element accesses replayed by solo CC runs (both schemes). */
    std::uint64_t ccElements = 0;
    /** Lanes x element accesses of gang passes (both schemes). */
    std::uint64_t gangLaneElements = 0;
    /** Gang passes and the lanes they carried. */
    std::uint64_t gangPasses = 0;
    std::uint64_t gangLanes = 0;
    /** Evaluator calls (one per group, a solo point is a group). */
    std::uint64_t groups = 0;

    WorkCounts &operator+=(const WorkCounts &o);
};

/**
 * evaluatePoint(req) -- the streamed solo path -- as its layer calls.
 * `req` must be a valid exact-engine sim request.
 */
vcache::EvalResult evaluateSoloTraced(const vcache::EvalRequest &req,
                                      Lane *lane, WorkCounts &work);

/**
 * evaluateBatch(reqs) for one workload key of at least two requests,
 * as its layer calls: the gang path.  All requests must be valid
 * exact-engine sim requests with the same workloadKey().
 */
std::vector<vcache::EvalResult>
evaluateGroupTraced(std::span<const vcache::EvalRequest> reqs, Lane *lane,
                    WorkCounts &work);

/**
 * Write the evaluation layers' metrics (trace, analytic, sim.mm,
 * sim.cc, sim.gang, evaluate) from the replica's spans and counts.
 * Shares are self time over `shareBaseNs`.
 */
void reportEvaluationLayers(JsonLine &out,
                            const std::map<std::string, LayerTotals> &totals,
                            const WorkCounts &work, double shareBaseNs);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_HH
