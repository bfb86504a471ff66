#include "sim/evaluate.hh"

#include <charconv>
#include <map>

#include "analytic/model.hh"
#include "sim/cc_sim.hh"
#include "sim/gang.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"
#include "util/faultinject.hh"

namespace vcache
{

namespace
{

// Bounds that keep a single point's cost finite without cutting into
// anything the paper sweeps: the figures stop at M = 64 banks,
// t_m = 64 and B = 8K, all far inside these.
constexpr unsigned kMaxBankBits = 12;
constexpr std::uint64_t kMaxMemoryTime = 4096;
constexpr std::uint64_t kMaxBlockingFactor = std::uint64_t{1} << 20;

/** VCM workload of one grid point (matches the historical sweep). */
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

/** Sampled-engine path: materialized traces, CI-targeted estimates. */
Expected<void>
runSampled(const EvalRequest &req, const MachineParams &machine,
           const Trace &mm_trace, const Trace &cc_trace,
           const CancelToken *cancel, EvalResult &out)
{
    SamplingOptions opts;
    opts.targetRelativeCi = req.targetCi;
    opts.seed = req.seed;
    opts.cancel = cancel;

    const auto mm = sampleMm(machine, mm_trace, opts);
    if (!mm.ok())
        return mm.error();
    out.simMm = mm.value().cyclesPerElement;
    out.mmCi = mm.value().ciHalfWidth;

    const auto direct = sampleCc(
        machine, ccCacheConfig(machine, CacheScheme::Direct), cc_trace,
        opts);
    if (!direct.ok())
        return direct.error();
    out.simDirect = direct.value().cyclesPerElement;
    out.directCi = direct.value().ciHalfWidth;

    const auto prime = sampleCc(
        machine, ccCacheConfig(machine, CacheScheme::Prime), cc_trace,
        opts);
    if (!prime.ok())
        return prime.error();
    out.simPrime = prime.value().cyclesPerElement;
    out.primeCi = prime.value().ciHalfWidth;
    return {};
}

/**
 * Exact engines over a point's two op streams (fresh, in order: MM
 * then CC): keep the full counters.
 */
Expected<void>
runExact(const EvalRequest &req, const MachineParams &machine,
         TraceSource &mm_source, TraceSource &cc_source,
         const CancelToken *cancel, EvalResult &out)
{
    try {
        out.mm = simulateMm(machine, mm_source, cancel, req.engine);
        out.direct = simulateCc(machine, CacheScheme::Direct,
                                cc_source, cancel, req.engine);
        cc_source.reset();
        out.prime = simulateCc(machine, CacheScheme::Prime, cc_source,
                               cancel, req.engine);
    } catch (const VcError &e) {
        return Expected<void>(e.error());
    }
    out.simMm = out.mm.cyclesPerResult();
    out.simDirect = out.direct.cyclesPerResult();
    out.simPrime = out.prime.cyclesPerResult();
    return {};
}

/** The analytic third of a result (always computed, sim or not). */
void
fillModels(const EvalRequest &req, const MachineParams &machine,
           EvalResult &out)
{
    const WorkloadParams workload = evalWorkload(req);
    out.modelMm = evaluate(MachineKind::MemoryOnly, machine, workload)
                      .cyclesPerResult;
    out.modelDirect =
        evaluate(MachineKind::DirectCache, machine, workload)
            .cyclesPerResult;
    out.modelPrime =
        evaluate(MachineKind::PrimeCache, machine, workload)
            .cyclesPerResult;
}

/**
 * The prologue both evaluatePoint overloads share: validate the
 * request, then fill the analytic third of its result.
 */
Expected<EvalResult>
modelPoint(const EvalRequest &req, const MachineParams &machine)
{
    if (auto valid = validateEvalRequest(req); !valid.ok())
        return valid.error();
    EvalResult out;
    fillModels(req, machine, out);
    return out;
}

} // namespace

std::string
canonicalDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

Expected<void>
validateEvalRequest(const EvalRequest &req)
{
    auto reject = [](std::string message) {
        return Expected<void>(
            makeError(Errc::InvalidConfig, std::move(message)));
    };
    if (req.bankBits < 1 || req.bankBits > kMaxBankBits)
        return reject("bank_bits " + std::to_string(req.bankBits) +
                      " outside [1, " + std::to_string(kMaxBankBits) +
                      "]");
    if (req.memoryTime < 1 || req.memoryTime > kMaxMemoryTime)
        return reject("t_m " + std::to_string(req.memoryTime) +
                      " outside [1, " + std::to_string(kMaxMemoryTime) +
                      "]");
    if (req.blockingFactor < 1 ||
        req.blockingFactor > kMaxBlockingFactor)
        return reject("B " + std::to_string(req.blockingFactor) +
                      " outside [1, " +
                      std::to_string(kMaxBlockingFactor) + "]");
    if (!(req.pDoubleStream >= 0.0) || !(req.pDoubleStream <= 1.0))
        return reject("p_ds " + canonicalDouble(req.pDoubleStream) +
                      " outside [0, 1]");
    if (req.engine == SimEngine::Sampled &&
        (!(req.targetCi > 0.0) || !(req.targetCi < 1.0)))
        return reject("target_ci " + canonicalDouble(req.targetCi) +
                      " outside (0, 1)");
    return {};
}

MachineParams
evalMachine(const EvalRequest &req)
{
    MachineParams machine;
    machine.mvl = 64;
    machine.cacheIndexBits = 13; // 8K-word cache
    machine.bankBits = req.bankBits;
    machine.memoryTime = req.memoryTime;
    return machine;
}

WorkloadParams
evalWorkload(const EvalRequest &req)
{
    WorkloadParams workload;
    workload.blockingFactor = static_cast<double>(req.blockingFactor);
    workload.reuseFactor = static_cast<double>(req.blockingFactor);
    workload.pDoubleStream = req.pDoubleStream;
    workload.pStride1First = 0.25;
    workload.pStride1Second = 0.25;
    workload.totalData = 65536.0;
    return workload;
}

std::string
canonicalEvalRequest(const EvalRequest &req)
{
    std::string out = "vc-eval/1";
    out += " m=" + std::to_string(req.bankBits);
    out += " tm=" + std::to_string(req.memoryTime);
    out += " B=" + std::to_string(req.blockingFactor);
    out += " pds=" + canonicalDouble(req.pDoubleStream);
    if (!req.sim) {
        // The analytic model reads no randomness: model-only requests
        // with different seeds share one cache entry.
        out += " engine=none";
        return out;
    }
    out += " seed=" + std::to_string(req.seed);
    if (req.engine == SimEngine::Sampled) {
        // Only the sampled engine reads targetCi, so only its key
        // carries it; Auto and Scalar are pinned bit-identical and
        // share one cache entry.
        out += " engine=sampled ci=" + canonicalDouble(req.targetCi);
    } else {
        out += " engine=exact";
    }
    return out;
}

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
evalRequestKey(const EvalRequest &req)
{
    return fnv1a64(canonicalEvalRequest(req));
}

Expected<EvalResult>
evaluatePoint(const EvalRequest &req, const CancelToken *cancel)
{
    const MachineParams machine = evalMachine(req);
    Expected<EvalResult> point = modelPoint(req, machine);
    if (!point.ok() || !req.sim)
        return point;
    EvalResult &out = point.value();

    Expected<void> ran;
    if (req.engine == SimEngine::Sampled) {
        // The sampled engine needs materialized traces anyway; build
        // this point's private arena.
        const TraceArena arena = buildTraceArena(req);
        ran = runSampled(req, machine, arena.mm, arena.cc, cancel, out);
    } else {
        // Stream the workloads straight from the generators' RNG: a
        // solo point never materializes its trace.  Batches *do*
        // materialize (once per workload, into a TraceArena);
        // generateVcmTrace() drains this same source, so the two
        // forms replay identical op streams by construction.
        VcmParams p = vcmPoint(req);
        p.maxStride = machine.banks();
        VcmTraceSource mm_source(p, req.seed);
        p.maxStride = 8192;
        VcmTraceSource cc_source(p, req.seed);
        ran = runExact(req, machine, mm_source, cc_source, cancel, out);
    }
    if (!ran.ok())
        return ran.error();
    return point;
}

std::string
workloadKey(const EvalRequest &req)
{
    if (!req.sim)
        return "vc-wl/1 model";
    std::string out = "vc-wl/1 vcm";
    out += " m=" + std::to_string(req.bankBits);
    out += " B=" + std::to_string(req.blockingFactor);
    out += " pds=" + canonicalDouble(req.pDoubleStream);
    out += " seed=" + std::to_string(req.seed);
    return out;
}

TraceArena
buildTraceArena(const EvalRequest &req)
{
    const MachineParams machine = evalMachine(req);
    VcmParams p = vcmPoint(req);
    TraceArena arena;
    p.maxStride = machine.banks();
    arena.mm = generateVcmTrace(p, req.seed);
    p.maxStride = 8192;
    arena.cc = generateVcmTrace(p, req.seed);
    return arena;
}

Expected<EvalResult>
evaluatePoint(const EvalRequest &req, const TraceArena &arena,
              const CancelToken *cancel)
{
    const MachineParams machine = evalMachine(req);
    Expected<EvalResult> point = modelPoint(req, machine);
    if (!point.ok() || !req.sim)
        return point;
    EvalResult &out = point.value();

    Expected<void> ran;
    if (req.engine == SimEngine::Sampled) {
        ran = runSampled(req, machine, arena.mm, arena.cc, cancel, out);
    } else {
        TraceVectorSource mm_source(arena.mm);
        TraceVectorSource cc_source(arena.cc);
        ran = runExact(req, machine, mm_source, cc_source, cancel, out);
    }
    if (!ran.ok())
        return ran.error();
    return point;
}

std::vector<Expected<EvalResult>>
evaluateBatch(std::span<const EvalRequest> reqs,
              std::span<const CancelToken *const> cancels,
              const CancelToken *cancel)
{
    std::vector<Expected<EvalResult>> out;
    out.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        out.emplace_back(makeError(Errc::InternalInvariant,
                                   "batch slot never evaluated"));

    auto tokenOf = [&](std::size_t i) {
        const CancelToken *own =
            cancels.empty() ? nullptr : cancels[i];
        return own ? own : cancel;
    };

    // Group valid requests by workload key, input order preserved
    // within each group (results land by index, so group order never
    // shows in the output).
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (auto valid = validateEvalRequest(reqs[i]); !valid.ok()) {
            out[i] = valid.error();
            continue;
        }
        groups[workloadKey(reqs[i])].push_back(i);
    }

    for (const auto &[key, members] : groups) {
        const EvalRequest &first = reqs[members.front()];
        if (!first.sim) {
            // Model-only: no trace, nothing to share.
            for (const std::size_t i : members)
                out[i] = evaluatePoint(reqs[i], tokenOf(i));
            continue;
        }

        const TraceArena arena = buildTraceArena(first);

        // Only Auto members ride the gang pass, whose lanes
        // fast-forward.  Scalar stays the element-wise reference and
        // the sampled engine drives its own unit scheduler: both share
        // the arena but are evaluated per point.
        std::vector<std::size_t> exact;
        exact.reserve(members.size());
        for (const std::size_t i : members) {
            if (reqs[i].engine != SimEngine::Auto)
                out[i] = evaluatePoint(reqs[i], arena, tokenOf(i));
            else
                exact.push_back(i);
        }

        // An armed fault plan needs every memory.bank.issue hit
        // attributable to one request: gang lanes interleave their
        // issues inside one pass, so fall back to per-point order
        // (the batched MM engine's own rule).
        const bool faulted = faults::kEnabled && faults::activeCheap();
        if (exact.size() < 2 || faulted) {
            for (const std::size_t i : exact)
                out[i] = evaluatePoint(reqs[i], arena, tokenOf(i));
            continue;
        }

        // Gang path: models and the MM machine per request (t_m is
        // woven through every MM bank horizon), then one shared
        // functional pass per CC scheme.
        std::vector<EvalResult> partial(exact.size());
        std::vector<bool> failed(exact.size(), false);
        std::vector<GangLane> lanes;
        std::vector<std::size_t> laneIdx;
        lanes.reserve(exact.size());
        laneIdx.reserve(exact.size());
        for (std::size_t k = 0; k < exact.size(); ++k) {
            const std::size_t i = exact[k];
            const MachineParams machine = evalMachine(reqs[i]);
            fillModels(reqs[i], machine, partial[k]);
            try {
                TraceVectorSource mm_source(arena.mm);
                partial[k].mm = simulateMm(machine, mm_source,
                                           tokenOf(i),
                                           reqs[i].engine);
                partial[k].simMm = partial[k].mm.cyclesPerResult();
            } catch (const VcError &e) {
                out[i] = e.error();
                failed[k] = true;
                continue;
            }
            lanes.push_back(GangLane{reqs[i].memoryTime, tokenOf(i)});
            laneIdx.push_back(k);
        }

        if (lanes.empty())
            continue;
        const MachineParams base = evalMachine(first);
        TraceVectorSource cc_source(arena.cc);
        const auto direct = simulateCcGang(base, CacheScheme::Direct,
                                           cc_source, lanes);
        cc_source.reset();
        const auto prime = simulateCcGang(base, CacheScheme::Prime,
                                          cc_source, lanes);

        for (std::size_t n = 0; n < lanes.size(); ++n) {
            const std::size_t k = laneIdx[n];
            const std::size_t i = exact[k];
            if (!direct[n].ok()) {
                out[i] = direct[n].error();
                continue;
            }
            if (!prime[n].ok()) {
                out[i] = prime[n].error();
                continue;
            }
            EvalResult r = partial[k];
            r.direct = direct[n].value();
            r.prime = prime[n].value();
            r.simDirect = r.direct.cyclesPerResult();
            r.simPrime = r.prime.cyclesPerResult();
            out[i] = r;
        }
    }
    return out;
}

} // namespace vcache
