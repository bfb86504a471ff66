/**
 * @file
 * Grid workload (grid_solo): the paper surface through the public
 * sweep and evaluation API, in process.
 */

#ifndef PERFBENCH_GRID_HH
#define PERFBENCH_GRID_HH

#include <cstdint>
#include <string>

namespace perfbench
{

struct GridArgs
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for the CSVs, the journal and the trace. */
    std::string workDir;
};

/**
 * Run the workload and print one JSON line of measurements.  With
 * `trace`, untraced and traced passes alternate.
 */
int runGrid(const GridArgs &args);

} // namespace perfbench

#endif // PERFBENCH_GRID_HH
