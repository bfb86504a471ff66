/**
 * @file
 * Simulator-performance micro-benchmark: how fast the library itself
 * runs (accesses or elements simulated per second), for users sizing
 * sweeps.  Not a paper result -- a tooling property.
 *
 * The BM_ParallelSweep* cases measure the sweep engine end to end --
 * grid points per second at 1/2/4 workers -- and BM_ThreadPool*
 * isolates the pool's submit/drain overhead, so regressions in the
 * parallel driver show up here rather than in wall-clock anecdotes.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/mapped.hh"
#include "simd/kernels.hh"
#include "core/comparison.hh"
#include "core/defaults.hh"
#include "sim/cc_sim.hh"
#include "sim/evaluate.hh"
#include "sim/mm_sim.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "sim/sweep.hh"
#include "trace/fft.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"
#include "util/buildinfo.hh"
#include "util/flat_hash.hh"
#include "util/threadpool.hh"

namespace
{

using namespace vcache;

/**
 * Label naming the SIMD backend the scalar-replay gang probes
 * dispatched to, so tracked baselines record which engine produced a
 * rate and scripts/compare_bench.py can refuse cross-backend
 * comparisons.
 */
std::string
simdBackendLabel()
{
    return std::string("simd=") +
           simd::backendName(simd::activeBackend());
}

const Trace &
benchTrace()
{
    static const Trace trace = generateMultistrideTrace(
        MultistrideParams{1024, 16, 0.25, 8192, 0, 2}, 11);
    return trace;
}

void
BM_FunctionalDirectCache(benchmark::State &state)
{
    const auto &trace = benchTrace();
    const auto n = totalElements(trace);
    DirectMappedCache cache(AddressLayout(0, 13, 32));
    for (auto _ : state) {
        cache.reset();
        benchmark::DoNotOptimize(runTraceThroughCache(cache, trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_FunctionalDirectCache);

void
BM_FunctionalPrimeCache(benchmark::State &state)
{
    const auto &trace = benchTrace();
    const auto n = totalElements(trace);
    PrimeMappedCache cache(AddressLayout(0, 13, 32));
    for (auto _ : state) {
        cache.reset();
        benchmark::DoNotOptimize(runTraceThroughCache(cache, trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_FunctionalPrimeCache);

void
BM_TimedMmSimulator(benchmark::State &state)
{
    const auto &trace = benchTrace();
    const auto n = totalElements(trace);
    MmSimulator sim(paperMachineM32());
    for (auto _ : state) {
        sim.reset();
        benchmark::DoNotOptimize(sim.run(trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TimedMmSimulator);

void
BM_TimedCcSimulator(benchmark::State &state, CacheScheme scheme)
{
    const auto &trace = benchTrace();
    const auto n = totalElements(trace);
    CcSimulator sim(paperMachineM32(), scheme);
    for (auto _ : state) {
        sim.reset();
        benchmark::DoNotOptimize(sim.run(trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
// The two paper mapping schemes take different devirtualized fast
// paths through the simulator, so the tracked baseline records each.
BENCHMARK_CAPTURE(BM_TimedCcSimulator, direct, CacheScheme::Direct);
BENCHMARK_CAPTURE(BM_TimedCcSimulator, prime, CacheScheme::Prime);

/**
 * Same simulated workload, but regenerated from the trace source's
 * RNG on every run instead of replaying a materialized vector: the
 * sweep drivers run this way, so the baseline tracks it separately.
 */
void
BM_StreamingCcSimulator(benchmark::State &state, CacheScheme scheme)
{
    const MultistrideParams params{1024, 16, 0.25, 8192, 0, 2};
    const auto n = totalElements(benchTrace());
    MultistrideTraceSource source(params, 11);
    CcSimulator sim(paperMachineM32(), scheme);
    for (auto _ : state) {
        sim.reset();
        source.reset();
        benchmark::DoNotOptimize(sim.run(source));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK_CAPTURE(BM_StreamingCcSimulator, prime, CacheScheme::Prime);

/**
 * The production shape of a CC run: evaluatePoint and the sweep
 * workers call simulateCc, which builds a fresh simulator per point,
 * so every run starts from empty first-touch bookkeeping.  The other
 * CC cases reuse one simulator through reset(), which keeps whatever
 * capacity the previous iteration grew and so hides any per-run setup
 * on the compulsory-miss path.  The trace is one VCM grid point of
 * the paper sweep (m=5, p_ds=0.2; R=8, two blocks) at blocking
 * factor B: at B=2048 its read footprint fits one cache, at B=8192
 * it is about 2.6 caches' worth of lines, so only that capture sees
 * whether the first-touch set regrows mid-run.
 */
EvalRequest
paperPointRequest(std::uint64_t blocking_factor)
{
    EvalRequest req;
    req.bankBits = 5;
    req.blockingFactor = blocking_factor;
    req.pDoubleStream = 0.2;
    req.seed = 11;
    return req;
}

void
BM_FreshCcSimulator(benchmark::State &state, CacheScheme scheme,
                    std::uint64_t blocking_factor,
                    SimEngine engine = SimEngine::Auto)
{
    const EvalRequest req = paperPointRequest(blocking_factor);
    const Trace trace = buildTraceArena(req).cc;
    const MachineParams machine = evalMachine(req);
    const auto n = totalElements(trace);
    for (auto _ : state) {
        TraceVectorSource source(trace);
        benchmark::DoNotOptimize(
            simulateCc(machine, scheme, source, nullptr, engine));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(simdBackendLabel());
}
BENCHMARK_CAPTURE(BM_FreshCcSimulator, direct, CacheScheme::Direct,
                  2048);
BENCHMARK_CAPTURE(BM_FreshCcSimulator, prime, CacheScheme::Prime, 2048);
BENCHMARK_CAPTURE(BM_FreshCcSimulator, direct_b8192, CacheScheme::Direct,
                  8192);
BENCHMARK_CAPTURE(BM_FreshCcSimulator, prime_b8192, CacheScheme::Prime,
                  8192);
// The element-wise oracle on the B=8192 point: CI reports the same-run
// Auto / Scalar ratio, the whole-walk payoff of the fast paths
// (closed-form cold passes, exact-mask gangs, the run memo).
BENCHMARK_CAPTURE(BM_FreshCcSimulator, direct_b8192_scalar,
                  CacheScheme::Direct, 8192, SimEngine::Scalar);
BENCHMARK_CAPTURE(BM_FreshCcSimulator, prime_b8192_scalar,
                  CacheScheme::Prime, 8192, SimEngine::Scalar);

/**
 * The short-op shape: the FFT-2D 128x128 trace (32512 double-stream
 * butterfly ops of 1 to 64 elements) on a fresh simulator.  Most ops
 * are too short for the walker's first-touch classification, so they
 * hash every miss; CI reports the same-run Auto / Scalar ratio per
 * scheme.
 */
void
BM_FftCcSimulator(benchmark::State &state, CacheScheme scheme,
                  SimEngine engine)
{
    static const Trace trace = generateFft2dTrace(Fft2dParams{128, 128, 0});
    const auto n = totalElements(trace);
    for (auto _ : state) {
        CcSimulator sim(paperMachineM32(), scheme);
        sim.setEngine(engine);
        benchmark::DoNotOptimize(sim.run(trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(simdBackendLabel());
}
BENCHMARK_CAPTURE(BM_FftCcSimulator, direct_auto, CacheScheme::Direct,
                  SimEngine::Auto);
BENCHMARK_CAPTURE(BM_FftCcSimulator, direct_scalar, CacheScheme::Direct,
                  SimEngine::Scalar);
BENCHMARK_CAPTURE(BM_FftCcSimulator, prime_auto, CacheScheme::Prime,
                  SimEngine::Auto);
BENCHMARK_CAPTURE(BM_FftCcSimulator, prime_scalar, CacheScheme::Prime,
                  SimEngine::Scalar);

/**
 * The first-touch set alone, as a CC run drives it: a fresh set
 * presized for one cache's worth of lines takes that many first
 * touches of a constant-stride stream (the argument is the stride).
 * Items are inserts.
 */
void
BM_FirstTouchSet(benchmark::State &state)
{
    const std::uint64_t lines = std::uint64_t{1}
                                << paperMachineM32().cacheIndexBits;
    const auto stride = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        FlatSet<Addr> touched;
        touched.reserve(lines);
        for (std::uint64_t i = 0; i < lines; ++i)
            touched.insert(0x10000 + i * stride);
        benchmark::DoNotOptimize(touched.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * lines));
}
BENCHMARK(BM_FirstTouchSet)->Arg(1)->Arg(8191)->Arg(8192);

/**
 * Run batching on its target workload: a streaming constant-stride
 * kernel re-sweeping its working set.  The scalar/batched pair pins
 * the speedup of the gang probe and run memo over the element loop
 * (the tracked baseline gates both entries); elements/s is the figure
 * of merit.
 */
void
BM_BatchedCcSimulator(benchmark::State &state, SimEngine engine)
{
    constexpr std::uint64_t kLength = 4096;
    constexpr std::uint64_t kRepeats = 100;
    ConstantStrideSource source(0, 3, kLength, kRepeats, true);
    CcSimulator sim(paperMachineM32(), CacheScheme::Prime);
    sim.setEngine(engine);
    for (auto _ : state) {
        sim.reset();
        source.reset();
        benchmark::DoNotOptimize(sim.run(source));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kLength * kRepeats));
    state.SetLabel(simdBackendLabel());
}
BENCHMARK_CAPTURE(BM_BatchedCcSimulator, scalar, SimEngine::Scalar);
BENCHMARK_CAPTURE(BM_BatchedCcSimulator, batched, SimEngine::Auto);

/**
 * The gang probe alone: two constant-stride ops that together fit the
 * cache, run alternately.  The run memo keeps only the last op, so it
 * never sees a repeat and Auto walks every strip through the gang
 * probe, while Scalar runs the element loop over the same tag state.
 * The auto/scalar ratio in one run is the SIMD gang speedup on this
 * host, independent of host-to-host rate differences; CI gates it.
 */
const Trace &
alternatingOpsTrace()
{
    static const Trace trace = [] {
        Trace t;
        for (std::uint64_t n = 0; n < 200; ++n) {
            VectorOp op;
            op.first = VectorRef{n % 2, 3, 2048};
            t.push_back(op);
        }
        return t;
    }();
    return trace;
}

void
BM_GangProbeCcSimulator(benchmark::State &state, SimEngine engine)
{
    const Trace &trace = alternatingOpsTrace();
    const auto n = totalElements(trace);
    CcSimulator sim(paperMachineM32(), CacheScheme::Prime);
    sim.setEngine(engine);
    for (auto _ : state) {
        sim.reset();
        benchmark::DoNotOptimize(sim.run(trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(simdBackendLabel());
}
BENCHMARK_CAPTURE(BM_GangProbeCcSimulator, scalar, SimEngine::Scalar);
BENCHMARK_CAPTURE(BM_GangProbeCcSimulator, auto, SimEngine::Auto);

void
BM_BatchedMmSimulator(benchmark::State &state, SimEngine engine)
{
    constexpr std::uint64_t kLength = 4096;
    constexpr std::uint64_t kRepeats = 100;
    ConstantStrideSource source(0, 3, kLength, kRepeats, true);
    MmSimulator sim(paperMachineM32());
    sim.setEngine(engine);
    for (auto _ : state) {
        sim.reset();
        source.reset();
        benchmark::DoNotOptimize(sim.run(source));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kLength * kRepeats));
    state.SetLabel(simdBackendLabel());
}
BENCHMARK_CAPTURE(BM_BatchedMmSimulator, scalar, SimEngine::Scalar);
BENCHMARK_CAPTURE(BM_BatchedMmSimulator, batched, SimEngine::Auto);

/**
 * The MM strip loop alone: a VCM trace at P_ds = 1 on the M = 32
 * machine.  Both streams of every op span the whole op, so no op has
 * a single-stream tail and every element issues through the strip
 * loop, whichever the engine; this row tracks the loop's cost.
 */
void
BM_DoubleStreamMmSimulator(benchmark::State &state)
{
    static const Trace trace = [] {
        VcmParams vcm;
        vcm.pDoubleStream = 1.0;
        vcm.maxStride = 32;
        vcm.blocks = 4;
        return generateVcmTrace(vcm, 17);
    }();
    const auto n = totalElements(trace);
    MmSimulator sim(paperMachineM32());
    for (auto _ : state) {
        sim.reset();
        benchmark::DoNotOptimize(sim.run(trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_DoubleStreamMmSimulator);

/**
 * The sampled engine on its target workload: a long trace on a
 * machine the run-batched fast-forward refuses (skewed bank mapping
 * for MM, XOR-mapped cache for CC), where forced scalar replay is the
 * only exact alternative.  Elements/s counts the *whole* trace, so
 * the sampled/scalar rate ratio is the wall-clock speedup the
 * estimator buys at its default +-3% CI target; the tracked baseline
 * gates that ratio.
 */
const Trace &
sampledBenchTrace()
{
    static const Trace trace = [] {
        ConstantStrideSource source(0, 3, 2048, 10000, true);
        return materializeTrace(source);
    }();
    return trace;
}

void
BM_SampledMmSimulator(benchmark::State &state, bool sampled)
{
    const Trace &trace = sampledBenchTrace();
    const auto n = totalElements(trace);
    MachineParams machine = paperMachineM32();
    machine.bankMapping = BankMapping::Skewed;
    MmSimulator sim(machine);
    sim.setEngine(SimEngine::Scalar);
    for (auto _ : state) {
        if (sampled) {
            benchmark::DoNotOptimize(
                sampleMm(machine, trace).value().cyclesPerElement);
        } else {
            sim.reset();
            benchmark::DoNotOptimize(sim.run(trace));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK_CAPTURE(BM_SampledMmSimulator, scalar, false);
BENCHMARK_CAPTURE(BM_SampledMmSimulator, sampled, true);

void
BM_SampledCcSimulator(benchmark::State &state, bool sampled)
{
    const Trace &trace = sampledBenchTrace();
    const auto n = totalElements(trace);
    CacheConfig config;
    config.organization = Organization::XorMapped;
    CcSimulator sim(paperMachineM32(), config);
    sim.setEngine(SimEngine::Scalar);
    for (auto _ : state) {
        if (sampled) {
            benchmark::DoNotOptimize(
                sampleCc(paperMachineM32(), config, trace)
                    .value()
                    .cyclesPerElement);
        } else {
            sim.reset();
            benchmark::DoNotOptimize(sim.run(trace));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK_CAPTURE(BM_SampledCcSimulator, scalar, false);
BENCHMARK_CAPTURE(BM_SampledCcSimulator, sampled, true);

/**
 * Shared-trace multi-point evaluation on its target workload: one
 * workload key, many cache configs (a t_m column of the paper's
 * grid).  The batched/pointwise pair pins the speedup of the shared
 * arena + gang timing lanes over N independent evaluatePoint calls;
 * points/s is the figure of merit and the tracked baseline gates the
 * ratio.
 */
std::vector<EvalRequest>
batchEvalGrid()
{
    std::vector<EvalRequest> reqs;
    for (std::uint64_t tm = 4; tm <= 64; tm += 4) {
        EvalRequest req;
        req.memoryTime = tm;
        req.blockingFactor = 1024;
        req.seed = 11;
        reqs.push_back(req);
    }
    return reqs;
}

void
BM_BatchEval(benchmark::State &state, bool batched)
{
    const std::vector<EvalRequest> reqs = batchEvalGrid();
    for (auto _ : state) {
        if (batched) {
            benchmark::DoNotOptimize(evaluateBatch(reqs));
        } else {
            for (const auto &req : reqs)
                benchmark::DoNotOptimize(evaluatePoint(req));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * reqs.size()));
    state.SetLabel(simdBackendLabel());
}
BENCHMARK_CAPTURE(BM_BatchEval, pointwise, false);
BENCHMARK_CAPTURE(BM_BatchEval, batched, true);

/**
 * Parallel sweep over a small model+sim grid; the benchmark argument
 * is the worker count, so the 1-vs-N ratio is the engine's speedup on
 * this host.
 */
void
BM_ParallelSweepModelSim(benchmark::State &state)
{
    std::vector<std::uint64_t> grid;
    for (std::uint64_t tm = 4; tm <= 64; tm += 4)
        grid.push_back(tm);

    SweepOptions opts;
    opts.jobs = static_cast<unsigned>(state.range(0));
    opts.progress = false;

    for (auto _ : state) {
        const auto rows = sweepGrid(
            grid,
            [&](const std::uint64_t &tm, SweepWorker &w) {
                MachineParams machine = paperMachineM32();
                machine.memoryTime = tm;
                WorkloadParams wl = paperWorkload();
                const auto p = compareMachines(machine, wl);
                w.stats.add(p.primeOverDirect());

                VcmParams vp;
                vp.blockingFactor = 512;
                vp.reuseFactor = 4;
                vp.blocks = 2;
                vp.maxStride = 8192;
                const auto trace = generateVcmTrace(vp, tm);
                return simulateCc(machine, CacheScheme::Prime, trace)
                    .cyclesPerResult();
            },
            opts);
        benchmark::DoNotOptimize(rows.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * grid.size()));
}
// UseRealTime: the work happens on pool threads, so CPU time of the
// calling thread would misreport throughput (see the items/s
// convention in bench/common.hh).  With wall time, items/s is the
// aggregate grid points per second across all workers, and the
// Arg(1)-vs-Arg(N) ratio is the parallel speedup.
BENCHMARK(BM_ParallelSweepModelSim)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/** Pool overhead: submit/drain many empty jobs. */
void
BM_ThreadPoolSubmitDrain(benchmark::State &state)
{
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    constexpr int kJobs = 1024;
    std::atomic<int> ran{0};
    for (auto _ : state) {
        for (int i = 0; i < kJobs; ++i)
            pool.submit([&ran](unsigned) {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        pool.wait();
    }
    benchmark::DoNotOptimize(ran.load());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kJobs));
}
BENCHMARK(BM_ThreadPoolSubmitDrain)->Arg(1)->Arg(4);

} // namespace

int
main(int argc, char **argv)
{
    // The JSON context's library_build_type is the benchmark
    // library's own build, not this binary's; record our CMake build
    // type, compiler and flags (and the full build identity) so
    // scripts/bench_to_json.py can store what compare_bench.py's
    // build guard needs.
    benchmark::AddCustomContext("vcache_build_type",
                                vcache::buildTypeName());
    benchmark::AddCustomContext("vcache_build",
                                vcache::buildInfoString());
    benchmark::AddCustomContext("vcache_compiler",
                                vcache::buildCompiler());
    benchmark::AddCustomContext("vcache_cxx_flags",
                                vcache::buildCxxFlags());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
