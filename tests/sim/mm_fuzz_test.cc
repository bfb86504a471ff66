/**
 * Seeded differential fuzz of the MM machine (sim/mm_sim.hh).
 *
 * The random op streams of fuzz_trace.hh run on every bank mapping
 * (LowOrder, Skewed, XorHash, PrimeModulo) at t_m = 1, 16 and 64.
 * Each engine is pinned to the reference, the element-wise issue loop
 * (SimEngine::Scalar):
 *
 *   - Auto, which fast-forwards the single-stream tail of every op
 *     whose mapping is residue-periodic;
 *   - an instrumented run, whose enabled observer forces element-wise
 *     issue and must see one bank issue per loaded element.
 *
 * Each simulator runs its trace twice without reset(), so a
 * fast-forward that leaves a bank horizon other than element-wise
 * issue would show up in the second pass.  Fixed
 * seeds keep the suite to a few seconds in a Debug build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "core/defaults.hh"
#include "fuzz_trace.hh"
#include "obs/observer.hh"
#include "sim/mm_sim.hh"

namespace vcache
{
namespace
{

constexpr std::uint64_t kMemoryTimes[] = {1, 16, 64};

constexpr std::pair<BankMapping, const char *> kMappings[] = {
    {BankMapping::LowOrder, "low-order"},
    {BankMapping::Skewed, "skewed"},
    {BankMapping::XorHash, "xor"},
    {BankMapping::PrimeModulo, "prime"},
};

/** An enabled observer that counts bank issues. */
struct IssueCounter : NullObserver
{
    static constexpr bool kEnabled = true;

    void onBankIssue(Cycles, std::uint64_t, Cycles) { ++issues; }

    std::uint64_t issues = 0;
};

/**
 * Bank requests the trace makes: every first-stream element, and
 * second-stream elements up to the first stream's length.
 */
std::uint64_t
bankRequests(const Trace &trace)
{
    std::uint64_t n = 0;
    for (const VectorOp &op : trace) {
        n += op.first.length;
        if (op.second)
            n += std::min(op.first.length, op.second->length);
    }
    return n;
}

void
expectSame(const SimResult &got, const SimResult &want,
           const std::string &label)
{
    EXPECT_EQ(got.totalCycles, want.totalCycles) << label;
    EXPECT_EQ(got.stallCycles, want.stallCycles) << label;
    EXPECT_EQ(got.results, want.results) << label;
}

TEST(MmFuzz, EnginesMatchTheElementWiseIssue)
{
    for (const std::uint64_t seed : kFuzzSeeds) {
        const Trace trace = fuzzTrace(seed);
        for (const auto &[mapping, mname] : kMappings) {
            for (const std::uint64_t tm : kMemoryTimes) {
                MachineParams m = paperMachineM32();
                m.memoryTime = tm;
                m.bankMapping = mapping;
                const std::string label = "seed " +
                                          std::to_string(seed) + " " +
                                          mname + " tm " +
                                          std::to_string(tm);

                MmSimulator scalar(m);
                MmSimulator batched(m);
                MmSimulator observed(m);
                scalar.setEngine(SimEngine::Scalar);
                batched.setEngine(SimEngine::Auto);
                for (const char *pass : {" pass 1", " pass 2"}) {
                    const SimResult want = scalar.run(trace);
                    expectSame(batched.run(trace), want,
                               label + " auto" + pass);
                    IssueCounter counter;
                    expectSame(observed.run(trace, counter), want,
                               label + " observed" + pass);
                    EXPECT_EQ(counter.issues, bankRequests(trace))
                        << label << pass;
                }
            }
        }
    }
}

} // namespace
} // namespace vcache
