/**
 * @file
 * Section 3.1's algorithm gallery: the named numerical kernels mapped
 * onto the VCM tuple ("by properly selecting these model parameters,
 * the model can fit into a variety of numerical algorithms"),
 * evaluated on all three machines.
 *
 * Each row is one algorithm/blocking pair; the trace-driven columns
 * replay the *actual* access stream of the same kernel through the
 * two caches for a functional cross-check.
 */

#include <iostream>

#include "analytic/presets.hh"
#include "cache/mapped.hh"
#include "common.hh"
#include "core/comparison.hh"
#include "core/defaults.hh"
#include "sim/runner.hh"
#include "trace/fft.hh"
#include "trace/lu.hh"
#include "trace/matmul.hh"
#include "util/table.hh"

namespace
{

using namespace vcache;

/** Miss ratios of one concrete trace through both caches. */
std::pair<double, double>
missRatios(const Trace &trace)
{
    const AddressLayout layout(0, 13, 32);
    DirectMappedCache direct(layout);
    PrimeMappedCache prime(layout);
    const auto d = runTraceThroughCache(direct, trace);
    const auto p = runTraceThroughCache(prime, trace);
    return {100.0 * d.missRatio(), 100.0 * p.missRatio()};
}

} // namespace

int
main()
{
    using namespace vcache;

    MachineParams machine = paperMachineM64();
    machine.memoryTime = 32;
    banner("Algorithm gallery (Section 3.1)",
           "named kernels as VCM tuples (analytic cycles/result) "
           "plus trace-driven miss ratios",
           machine);

    Table table({"algorithm", "B", "R", "MM", "CC-direct", "CC-prime",
                 "trace direct miss%", "trace prime miss%"});

    struct Row
    {
        std::string name;
        WorkloadParams w;
        Trace trace;
    };

    std::vector<Row> rows;
    rows.push_back({"matmul b=16", matmulWorkload(16, 512),
                    generateMatmulTrace(MatmulParams{128, 16, 0, 512})});
    rows.push_back({"matmul b=32", matmulWorkload(32, 512),
                    generateMatmulTrace(MatmulParams{128, 32, 0, 512})});
    rows.push_back({"matmul b=64", matmulWorkload(64, 512),
                    generateMatmulTrace(MatmulParams{128, 64, 0, 512})});
    rows.push_back({"LU b=16", luWorkload(16, 512),
                    generateLuTrace(LuParams{64, 16, 0})});
    rows.push_back({"LU b=32", luWorkload(32, 512),
                    generateLuTrace(LuParams{64, 32, 0})});
    rows.push_back({"FFT b=1K", fftWorkload(1024, 65536),
                    generateFft2dTrace(Fft2dParams{1024, 64, 0})});
    rows.push_back({"FFT b=4K", fftWorkload(4096, 65536),
                    generateFft2dTrace(Fft2dParams{4096, 16, 0})});
    rows.push_back({"row/col b=4K",
                    rowColumnWorkload(4096, 64, 65536), Trace{}});

    for (const auto &row : rows) {
        const auto p = compareMachines(machine, row.w);
        std::string dm = "-", pm = "-";
        if (!row.trace.empty()) {
            const auto [d, q] = missRatios(row.trace);
            dm = Table::format(d);
            pm = Table::format(q);
        }
        table.addRowStrings(
            {row.name, Table::format(row.w.blockingFactor),
             Table::format(row.w.reuseFactor), Table::format(p.mm),
             Table::format(p.direct), Table::format(p.prime), dm,
             pm});
    }
    table.print(std::cout);
    return 0;
}
