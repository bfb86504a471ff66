#include "replica.hh"

#include <stdexcept>

#include "analytic/model.hh"
#include "sim/gang.hh"
#include "sim/runner.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

namespace perfbench
{

using namespace vcache;

WorkCounts &
WorkCounts::operator+=(const WorkCounts &o)
{
    points += o.points;
    gangPoints += o.gangPoints;
    arenas += o.arenas;
    arenaElements += o.arenaElements;
    mmResults += o.mmResults;
    ccElements += o.ccElements;
    gangLaneElements += o.gangLaneElements;
    gangPasses += o.gangPasses;
    gangLanes += o.gangLanes;
    groups += o.groups;
    return *this;
}

namespace
{

/** The analytic third of a result, as evaluate.cc computes it. */
void
fillModels(const EvalRequest &req, EvalResult &out, Lane *lane,
           std::uint64_t id)
{
    SpanScope span(lane, "analytic", id);
    const MachineParams machine = evalMachine(req);
    const WorkloadParams workload = evalWorkload(req);
    out.modelMm = evaluate(MachineKind::MemoryOnly, machine, workload)
                      .cyclesPerResult;
    out.modelDirect =
        evaluate(MachineKind::DirectCache, machine, workload)
            .cyclesPerResult;
    out.modelPrime = evaluate(MachineKind::PrimeCache, machine, workload)
                         .cyclesPerResult;
}

/** VCM workload of one point (evaluate.cc's vcmPoint). */
VcmParams
vcmPoint(const EvalRequest &req)
{
    VcmParams p;
    p.blockingFactor = req.blockingFactor;
    p.reuseFactor = 8;
    p.pDoubleStream = req.pDoubleStream;
    p.blocks = 2;
    return p;
}

/** Element accesses a CC run replayed (every access probes). */
std::uint64_t
ccAccesses(const SimResult &r)
{
    return r.hits + r.misses;
}

void
finish(EvalResult &out)
{
    out.simMm = out.mm.cyclesPerResult();
    out.simDirect = out.direct.cyclesPerResult();
    out.simPrime = out.prime.cyclesPerResult();
}

} // namespace

EvalResult
evaluateSoloTraced(const EvalRequest &req, Lane *lane, WorkCounts &work)
{
    const MachineParams machine = evalMachine(req);
    EvalResult out;
    fillModels(req, out, lane, req.seed);
    VcmParams p = vcmPoint(req);
    p.maxStride = machine.banks();
    {
        SpanScope span(lane, "sim.mm", req.seed);
        VcmTraceSource mm_source(p, req.seed);
        out.mm = simulateMm(machine, mm_source, nullptr, req.engine);
    }
    p.maxStride = 8192;
    {
        SpanScope span(lane, "sim.cc", req.seed);
        VcmTraceSource cc_source(p, req.seed);
        out.direct = simulateCc(machine, CacheScheme::Direct, cc_source,
                                nullptr, req.engine);
        cc_source.reset();
        out.prime = simulateCc(machine, CacheScheme::Prime, cc_source,
                               nullptr, req.engine);
    }
    finish(out);
    work.points += 1;
    work.groups += 1;
    work.mmResults += out.mm.results;
    work.ccElements += ccAccesses(out.direct) + ccAccesses(out.prime);
    return out;
}

std::vector<EvalResult>
evaluateGroupTraced(std::span<const EvalRequest> reqs, Lane *lane,
                    WorkCounts &work)
{
    if (reqs.size() < 2)
        throw std::invalid_argument("a traced group needs two requests");
    std::vector<EvalResult> out(reqs.size());
    const EvalRequest &first = reqs.front();
    work.groups += 1;
    work.points += reqs.size();

    TraceArena arena;
    {
        SpanScope span(lane, "trace.arena", first.seed);
        arena = buildTraceArena(first);
    }
    const std::uint64_t mm_elements = totalElements(arena.mm);
    const std::uint64_t cc_elements = totalElements(arena.cc);
    work.arenas += 1;
    work.arenaElements += mm_elements + cc_elements;

    // Gang path: models and the MM machine per request, then one
    // shared functional pass per CC scheme.
    std::vector<GangLane> lanes;
    lanes.reserve(reqs.size());
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        const MachineParams machine = evalMachine(reqs[k]);
        fillModels(reqs[k], out[k], lane, reqs[k].memoryTime);
        {
            SpanScope span(lane, "sim.mm", reqs[k].memoryTime);
            TraceVectorSource mm_source(arena.mm);
            out[k].mm =
                simulateMm(machine, mm_source, nullptr, reqs[k].engine);
        }
        work.mmResults += out[k].mm.results;
        lanes.push_back(GangLane{reqs[k].memoryTime, nullptr});
    }

    const MachineParams base = evalMachine(first);
    std::vector<Expected<SimResult>> direct;
    std::vector<Expected<SimResult>> prime;
    {
        SpanScope span(lane, "sim.gang", reqs.size());
        TraceVectorSource cc_source(arena.cc);
        direct = simulateCcGang(base, CacheScheme::Direct, cc_source,
                                lanes);
        cc_source.reset();
        prime = simulateCcGang(base, CacheScheme::Prime, cc_source,
                               lanes);
    }
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        out[k].direct = direct[k].value();
        out[k].prime = prime[k].value();
        finish(out[k]);
    }
    work.gangPoints += reqs.size();
    work.gangPasses += 2;
    work.gangLanes += 2 * reqs.size();
    work.gangLaneElements += 2 * reqs.size() * cc_elements;
    return out;
}

void
reportEvaluationLayers(JsonLine &out,
                       const std::map<std::string, LayerTotals> &totals,
                       const WorkCounts &w, double shareBaseNs)
{
    auto self = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : double(it->second.selfNs);
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    out.num("trace.arena_us",
            ratio(self("trace.arena") / 1e3, double(w.arenas)));
    out.num("trace.elements_per_key",
            ratio(double(w.arenaElements), double(w.arenas)));
    out.num("analytic.us_per_point",
            ratio(self("analytic") / 1e3, double(w.points)));
    out.num("sim.mm.ns_per_element",
            ratio(self("sim.mm"), double(w.mmResults)));
    out.num("sim.cc.ns_per_element",
            ratio(self("sim.cc"), double(w.ccElements)));
    out.num("sim.gang.ns_per_lane_element",
            ratio(self("sim.gang"), double(w.gangLaneElements)));
    out.num("sim.gang.lanes_mean",
            ratio(double(w.gangLanes), double(w.gangPasses)));
    out.num("evaluate.group_size_mean",
            ratio(double(w.points), double(w.groups)));
    out.num("evaluate.gang_point_ratio",
            ratio(double(w.gangPoints), double(w.points)));
    const std::pair<const char *, const char *> shares[] = {
        {"trace.arena", "trace.share"}, {"analytic", "analytic.share"},
        {"sim.mm", "sim.mm.share"},     {"sim.cc", "sim.cc.share"},
        {"sim.gang", "sim.gang.share"}, {"evaluate", "evaluate.share"}};
    for (const auto &[span, metric] : shares)
        out.num(metric, ratio(self(span), shareBaseNs));
}

} // namespace perfbench
