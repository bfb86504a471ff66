/**
 * @file
 * Figure 11: row/column accesses of a matrix (one stride fixed at 1,
 * the other random).
 *
 * Paper shape: when rows (non-unit stride) dominate, the
 * direct-mapped cache suffers badly; when columns dominate it does
 * well; the prime-mapped cache delivers the same (better) performance
 * in both regimes.
 *
 * The analytic sweep is backed by a trace-driven run of an actual
 * row/column mix over a power-of-two-leading-dimension matrix through
 * both real caches.
 */

#include <iostream>

#include "cache/mapped.hh"
#include "common.hh"
#include "core/comparison.hh"
#include "core/defaults.hh"
#include "sim/runner.hh"
#include "trace/matrix_access.hh"
#include "util/table.hh"

int
main()
{
    using namespace vcache;

    MachineParams machine = paperMachineM64();
    machine.memoryTime = 32;
    banner("Figure 11",
           "row/column matrix accesses: analytic sweep over the row "
           "fraction + trace-driven miss ratios",
           machine);

    // Analytic: a single-stream mix where a fraction f of the
    // operations read rows (random stride) and 1-f read columns
    // (stride 1): P_stride1 = 1 - f.
    Table analytic({"row fraction", "MM", "CC-direct", "CC-prime"});
    for (int i = 0; i <= 10; ++i) {
        const double f = 0.1 * i;
        WorkloadParams w = paperWorkload();
        w.blockingFactor = 4096;
        w.reuseFactor = 4096;
        w.pDoubleStream = 0.0;
        w.pStride1First = 1.0 - f;
        const auto p = compareMachines(machine, w);
        analytic.addRow(f, p.mm, p.direct, p.prime);
    }
    analytic.print(std::cout);

    // Trace-driven: P = 1024 column-major matrix, 64-element slices.
    std::cout << "\ntrace-driven (P = 1024, 256-element slices, "
                 "miss ratio):\n";
    Table traced({"row fraction", "direct miss%", "prime miss%"});
    for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        RowColumnMixParams params;
        params.shape = MatrixShape{1024, 1024, 0};
        params.rowFraction = f;
        params.operations = 2048;
        params.length = 256;
        const auto trace = generateRowColumnMix(params, 12345);

        const AddressLayout layout(0, 13, 32);
        DirectMappedCache direct(layout);
        PrimeMappedCache prime(layout);
        const auto ds = runTraceThroughCache(direct, trace);
        const auto ps = runTraceThroughCache(prime, trace);
        traced.addRow(f, 100.0 * ds.missRatio(),
                      100.0 * ps.missRatio());
    }
    traced.print(std::cout);
    return 0;
}
