/**
 * @file
 * Prefetching ablation (the Fu & Patel comparison of the paper's
 * introduction).
 *
 * Two views of the same question -- can prefetching substitute for
 * the prime mapping?
 *
 *   1. functional: miss ratios with an untimed prefetcher.  Tagged
 *      stride prefetching can make a perfectly-predictable single
 *      stream look free, which is exactly why miss ratio alone is
 *      the wrong metric.
 *   2. timed: the cycle-level CC machine with in-flight prefetches
 *      that contend for buses and banks.  On the predictable
 *      multistride stream the stride scheme wins; on the blocked FFT
 *      it barely moves the needle at degree 1 and is catastrophic at
 *      depth (prefetches into thrashed frames evict each other and
 *      flood bank 0) -- while the bare prime cache is uniformly
 *      fast with zero tuning.
 *
 * Paper claim: even with the prefetching schemes of [8], "cache miss
 * ratios for some applications ... are still as high as over 40%";
 * interference has to be removed, not hidden.
 */

#include <iostream>

#include "cache/mapped.hh"
#include "cache/prefetch.hh"
#include "common.hh"
#include "core/defaults.hh"
#include "sim/cc_sim.hh"
#include "sim/runner.hh"
#include "trace/fft.hh"
#include "trace/multistride.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace
{

using namespace vcache;

struct Config
{
    std::string name;
    PrefetchPolicy policy;
    unsigned degree;
};

const Config kConfigs[] = {
    {"direct, no prefetch", PrefetchPolicy::None, 1},
    {"direct + sequential d=1", PrefetchPolicy::Sequential, 1},
    {"direct + sequential d=4", PrefetchPolicy::Sequential, 4},
    {"direct + stride d=1", PrefetchPolicy::Stride, 1},
    {"direct + stride d=4", PrefetchPolicy::Stride, 4},
    {"direct + stride d=16", PrefetchPolicy::Stride, 16},
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace vcache;

    ArgParser args("Prefetching ablation: direct-mapped + prefetch "
                   "vs bare prime-mapped.");
    addObsFlags(args);
    args.parse(argc, argv);

    MachineParams machine = paperMachineM32();
    banner("Prefetching ablation (introduction / Section 2.2)",
           "direct-mapped + prefetch vs bare prime-mapped; "
           "functional and timed views",
           machine);

    const auto multistride = generateMultistrideTrace(
        MultistrideParams{2048, 48, 0.25, 8192, 0, 4}, 99);
    const auto fft = generateFft2dTrace(Fft2dParams{1024, 512, 0});

    struct Workload
    {
        std::string name;
        const Trace &trace;
    };
    const Workload workloads[] = {{"multistride", multistride},
                                  {"blocked 2-D FFT", fft}};

    const AddressLayout layout(0, 13, 32);

    for (const auto &wl : workloads) {
        std::cout << "workload: " << wl.name
                  << " -- functional miss ratios\n";
        Table functional({"configuration", "miss%",
                          "prefetches/access", "accuracy%"});
        for (const auto &cfg : kConfigs) {
            DirectMappedCache cache(layout);
            PrefetchingCache front(cache, cfg.policy, cfg.degree);
            const auto stats = runTraceWithPrefetch(front, wl.trace);
            functional.addRow(
                cfg.name, 100.0 * stats.missRatio(),
                static_cast<double>(front.prefetchStats().issued) /
                    static_cast<double>(stats.accesses),
                100.0 * front.prefetchStats().accuracy());
        }
        {
            PrimeMappedCache prime(layout);
            const auto ps = runTraceThroughCache(prime, wl.trace);
            functional.addRow("prime, no prefetch",
                              100.0 * ps.missRatio(), 0.0, 0.0);
        }
        functional.print(std::cout);

        std::cout << "\nworkload: " << wl.name
                  << " -- timed (cycles/result, t_m = "
                  << machine.memoryTime << ")\n";
        Table timed({"configuration", "cycles/result",
                     "stalls/result", "prefetches/access"});
        for (const auto &cfg : kConfigs) {
            CcSimulator sim(machine, CacheScheme::Direct);
            sim.enablePrefetch(cfg.policy, cfg.degree);
            const auto r = sim.run(wl.trace);
            timed.addRow(cfg.name, r.cyclesPerResult(),
                         static_cast<double>(r.stallCycles) /
                             static_cast<double>(r.results),
                         static_cast<double>(sim.prefetchesIssued()) /
                             static_cast<double>(r.hits + r.misses));
        }
        {
            CcSimulator sim(machine, CacheScheme::Prime);
            const auto r = sim.run(wl.trace);
            timed.addRow("prime, no prefetch", r.cyclesPerResult(),
                         static_cast<double>(r.stallCycles) /
                             static_cast<double>(r.results),
                         0.0);
        }
        {
            // The mechanisms compose: prefetch hides the remaining
            // capacity/latency misses the prime mapping cannot.
            CcSimulator sim(machine, CacheScheme::Prime);
            sim.enablePrefetch(PrefetchPolicy::Stride, 2);
            const auto r = sim.run(wl.trace);
            timed.addRow("prime + stride d=2", r.cyclesPerResult(),
                         static_cast<double>(r.stallCycles) /
                             static_cast<double>(r.results),
                         static_cast<double>(sim.prefetchesIssued()) /
                             static_cast<double>(r.hits + r.misses));
        }
        timed.print(std::cout);
        std::cout << "\n";
    }

    ObsSession session(obsOptionsFromFlags(args));
    observeSchemes(session, machine, multistride);
    return 0;
}
