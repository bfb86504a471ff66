/**
 * @file
 * Shared pieces of the benchmark driver: seed derivation,
 * statistics, process memory and the JSON result line.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** splitmix64 finalizer: the benchmark's one seed-derivation step. */
std::uint64_t mix64(std::uint64_t x);

/** Derive the n-th seed of a stream (positive, at most 40 bits). */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t n);

/** Value at quantile q in [0, 1] of `v` (sorted in place). */
double quantile(std::vector<double> &v, double q);

/**
 * Nanoseconds per iteration of a fixed chain of dependent integer
 * operations, on the calling thread's CPU clock.  The chain takes a
 * fixed number of cycles, so the figure follows the core's clock
 * speed, which on a shared host moves with the neighbours' load.
 */
double clockLoopNs();

/**
 * clockLoopNs() on the reference core.  Reported CPU times are
 * multiplied by kReferenceLoopNs / clockLoopNs(), timed beside them:
 * CPU time at the reference clock speed.
 */
constexpr double kReferenceLoopNs = 4.0;

/** Peak resident set (VmHWM) of this process, in MiB. */
double peakRssMiB();

/** Flat JSON object of numbers and strings, printed as one line. */
class JsonLine
{
  public:
    void num(const std::string &key, double value);
    void integer(const std::string &key, std::uint64_t value);
    void str(const std::string &key, const std::string &value);
    std::string render() const;

  private:
    std::map<std::string, std::string> fields;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
