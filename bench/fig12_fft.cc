/**
 * @file
 * Figure 12 (the paper's second "Figure 11"): blocked 2-D FFT, cycles
 * per point, direct vs prime, one dimension fixed while the other
 * varies.
 *
 * Paper shape: "the prime-mapped cache outperforms the direct-mapped
 * cache by a factor of more than 2.  The improvement is valid over
 * all possible values of the blocking factor B2."
 *
 * The analytic model is backed by a trace-driven run of the actual
 * butterfly access pattern through both caches.
 */

#include <iostream>

#include "analytic/fft_model.hh"
#include "cache/mapped.hh"
#include "common.hh"
#include "core/defaults.hh"
#include "sim/runner.hh"
#include "trace/fft.hh"
#include "util/table.hh"

int
main()
{
    using namespace vcache;

    MachineParams machine = paperMachineM64();
    machine.memoryTime = 32;
    banner("Figure 12",
           "blocked 2-D FFT cycles/point; N = B1 x B2; t_m = 32",
           machine);

    std::cout << "sweep B2 (B1 = 4096):\n";
    Table by_b2({"B2", "MM", "CC-direct", "CC-prime",
                 "direct/prime"});
    for (std::uint64_t b2 = 16; b2 <= 4096; b2 *= 2) {
        const FftShape shape{4096, b2};
        const double mm = fftCyclesPerPointMm(machine, shape);
        const double d =
            fftCyclesPerPointCc(machine, CacheScheme::Direct, shape);
        const double p =
            fftCyclesPerPointCc(machine, CacheScheme::Prime, shape);
        by_b2.addRow(b2, mm, d, p, d / p);
    }
    by_b2.print(std::cout);

    std::cout << "\nsweep B1 (B2 = 1024):\n";
    Table by_b1({"B1", "MM", "CC-direct", "CC-prime",
                 "direct/prime"});
    for (std::uint64_t b1 = 64; b1 <= 8192; b1 *= 2) {
        const FftShape shape{b1, 1024};
        const double mm = fftCyclesPerPointMm(machine, shape);
        const double d =
            fftCyclesPerPointCc(machine, CacheScheme::Direct, shape);
        const double p =
            fftCyclesPerPointCc(machine, CacheScheme::Prime, shape);
        by_b1.addRow(b1, mm, d, p, d / p);
    }
    by_b1.print(std::cout);

    // Trace-driven check: butterfly-accurate accesses of the 2-D
    // algorithm through the real caches.
    std::cout << "\ntrace-driven butterfly accesses (miss ratio):\n";
    Table traced({"B1xB2", "direct miss%", "prime miss%"});
    for (std::uint64_t b2 : {256ull, 1024ull, 4096ull}) {
        const Fft2dParams params{b2, 512, 0};
        const auto trace = generateFft2dTrace(params);
        const AddressLayout layout(0, 13, 32);
        DirectMappedCache direct(layout);
        PrimeMappedCache prime(layout);
        const auto ds = runTraceThroughCache(direct, trace);
        const auto ps = runTraceThroughCache(prime, trace);
        traced.addRow("512x" + std::to_string(b2),
                      100.0 * ds.missRatio(), 100.0 * ps.missRatio());
    }
    traced.print(std::cout);

    // Agarwal's IBM-3090 algorithm (end of Section 4): groups of
    // rows loaded as a sub-matrix.  "The selection of B2 is tricky
    // ... improper B2 can make the cache performance very poor" for
    // the power-of-two cache; the prime cache needs no tuning.
    std::cout << "\nAgarwal group-of-rows variant (B1 = 64, 8 rows "
                 "per group, miss ratio):\n";
    Table agarwal({"B2", "direct miss%", "prime miss%"});
    for (std::uint64_t b2 : {128ull, 256ull, 512ull, 1024ull,
                             2048ull, 4096ull}) {
        const FftAgarwalParams params{b2, 64, 8, 0};
        const auto trace = generateFftAgarwalTrace(params);
        const AddressLayout layout(0, 13, 32);
        DirectMappedCache direct(layout);
        PrimeMappedCache prime(layout);
        const auto ds = runTraceThroughCache(direct, trace);
        const auto ps = runTraceThroughCache(prime, trace);
        agarwal.addRow(b2, 100.0 * ds.missRatio(),
                       100.0 * ps.missRatio());
    }
    agarwal.print(std::cout);
    return 0;
}
