/**
 * Differential pins for the SMARTS-style sampling engine.
 *
 * The sampled estimator is statistical, so the contract differs from
 * the batched engine's bit-identity: across the cache-organization x
 * workload matrix the reported confidence interval must cover the
 * exact (scalar, full-trace) cycles-per-element on at least 90% of
 * seeds; and for a fixed seed the estimate must be bit-identical
 * whatever the worker count (live-points make units independent and
 * the reduction runs in unit order).  Degenerate single-unit sampling
 * must reproduce the exact result, and live-points must round-trip
 * through the checkpoint journal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/defaults.hh"
#include "obs/registry.hh"
#include "sim/cc_sim.hh"
#include "sim/checkpoint.hh"
#include "sim/mm_sim.hh"
#include "sim/sampling.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

namespace vcache
{
namespace
{

/** Self-deleting temp file path. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
    }

    ~TempPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** The same organization matrix the batched differential sweeps. */
std::vector<std::pair<std::string, CacheConfig>>
allSchemes()
{
    std::vector<std::pair<std::string, CacheConfig>> out;

    CacheConfig direct;
    out.emplace_back("direct", direct);

    CacheConfig prime;
    prime.organization = Organization::PrimeMapped;
    out.emplace_back("prime", prime);

    CacheConfig prime_assoc;
    prime_assoc.organization = Organization::PrimeSetAssociative;
    prime_assoc.associativity = 2;
    out.emplace_back("prime-assoc", prime_assoc);

    CacheConfig set_assoc;
    set_assoc.organization = Organization::SetAssociative;
    set_assoc.associativity = 4;
    out.emplace_back("set-assoc", set_assoc);

    CacheConfig xor_mapped;
    xor_mapped.organization = Organization::XorMapped;
    out.emplace_back("xor", xor_mapped);

    CacheConfig random_assoc;
    random_assoc.organization = Organization::SetAssociative;
    random_assoc.associativity = 4;
    random_assoc.replacement = ReplacementKind::Random;
    out.emplace_back("set-assoc-random", random_assoc);

    CacheConfig wide_lines;
    wide_lines.offsetBits = 2;
    out.emplace_back("direct-4word", wide_lines);

    return out;
}

/** Workload family traces (materialized once). */
std::vector<std::pair<std::string, const Trace *>>
workloads()
{
    static const Trace vcm = [] {
        VcmParams p;
        p.blockingFactor = 512;
        p.reuseFactor = 6;
        p.blocks = 3;
        p.maxStride = 4096;
        return generateVcmTrace(p, 42);
    }();
    static const Trace multistride = generateMultistrideTrace(
        MultistrideParams{1024, 12, 0.25, 8192, 0, 3}, 7);
    static const Trace streaming = [] {
        ConstantStrideSource source(64, 33, 1000, 25, true);
        return materializeTrace(source);
    }();
    return {{"vcm", &vcm},
            {"multistride", &multistride},
            {"streaming", &streaming}};
}

double
exactCcCpe(const CacheConfig &config, const Trace &trace,
           SimResult *out = nullptr)
{
    CcSimulator sim(paperMachineM32(), config);
    sim.setEngine(SimEngine::Scalar);
    const SimResult r = sim.run(trace);
    if (out)
        *out = r;
    return static_cast<double>(r.totalCycles) /
           static_cast<double>(r.results);
}

SamplingOptions
testOptions(std::uint64_t seed)
{
    SamplingOptions opts;
    opts.unitElements = 256;
    opts.initialUnits = 8;
    opts.seed = seed;
    return opts;
}

TEST(SamplingUnits, PartitionIsContiguousAndExhaustive)
{
    const Trace &trace = *workloads()[0].second;
    const auto units = partitionUnits(trace, 256);
    ASSERT_FALSE(units.empty());
    std::size_t expect_begin = 0;
    std::uint64_t elements = 0;
    for (const SamplingUnit &u : units) {
        EXPECT_EQ(u.opBegin, expect_begin);
        EXPECT_GT(u.opEnd, u.opBegin);
        std::uint64_t have = 0;
        for (std::size_t i = u.opBegin; i < u.opEnd; ++i)
            have += trace[i].first.length;
        EXPECT_EQ(have, u.elements);
        elements += have;
        expect_begin = u.opEnd;
    }
    EXPECT_EQ(expect_begin, trace.size());
    std::uint64_t total = 0;
    for (const VectorOp &op : trace)
        total += op.first.length;
    EXPECT_EQ(elements, total);
    // Every unit but possibly the last reaches the element floor.
    for (std::size_t i = 0; i + 1 < units.size(); ++i)
        EXPECT_GE(units[i].elements, 256u);
}

TEST(SamplingCc, SingleUnitReproducesTheExactResult)
{
    const Trace &trace = *workloads()[0].second;
    for (const auto &[name, config] : allSchemes()) {
        SimResult exact;
        const double cpe = exactCcCpe(config, trace, &exact);

        SamplingOptions opts = testOptions(1);
        opts.unitElements = ~std::uint64_t{0}; // one unit: everything
        const auto est = sampleCc(paperMachineM32(), config, trace,
                                  opts);
        ASSERT_TRUE(est.ok()) << name;
        EXPECT_EQ(est.value().unitsTotal, 1u) << name;
        EXPECT_EQ(est.value().unitsMeasured, 1u) << name;
        EXPECT_DOUBLE_EQ(est.value().cyclesPerElement, cpe) << name;
        EXPECT_TRUE(est.value().ciMet) << name;
        EXPECT_EQ(est.value().detailedTotals.totalCycles,
                  exact.totalCycles)
            << name;
        EXPECT_EQ(est.value().detailedTotals.misses, exact.misses)
            << name;
        EXPECT_EQ(est.value().detailedTotals.compulsoryMisses,
                  exact.compulsoryMisses)
            << name;
    }
}

TEST(SamplingCc, CiCoversTheExactCpeAcrossTheMatrix)
{
    constexpr std::uint64_t kSeeds = 8;
    std::uint64_t covered = 0;
    std::uint64_t trials = 0;
    for (const auto &[wname, trace] : workloads()) {
        for (const auto &[cname, config] : allSchemes()) {
            const double exact = exactCcCpe(config, *trace);
            for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
                const auto est = sampleCc(paperMachineM32(), config,
                                          *trace, testOptions(seed));
                ASSERT_TRUE(est.ok()) << wname << "/" << cname;
                const SamplingEstimate &e = est.value();
                EXPECT_GT(e.unitsMeasured, 0u);
                ++trials;
                if (std::abs(e.cyclesPerElement - exact) <=
                    e.ciHalfWidth)
                    ++covered;
            }
        }
    }
    // 95% nominal coverage, 90% acceptance: slack for the floored
    // non-sampling bias allowance and the t approximation.
    EXPECT_GE(covered * 10, trials * 9)
        << covered << " of " << trials << " intervals covered";
}

TEST(SamplingCc, WorkerCountDoesNotChangeTheEstimate)
{
    const Trace &trace = *workloads()[1].second;
    for (const auto &[name, config] : allSchemes()) {
        SamplingEstimate ref;
        bool have_ref = false;
        for (const unsigned jobs : {1u, 4u, 8u}) {
            SamplingOptions opts = testOptions(3);
            opts.jobs = jobs;
            const auto est =
                sampleCc(paperMachineM32(), config, trace, opts);
            ASSERT_TRUE(est.ok()) << name;
            if (!have_ref) {
                ref = est.value();
                have_ref = true;
                continue;
            }
            const SamplingEstimate &e = est.value();
            const std::string tag =
                name + "/jobs=" + std::to_string(jobs);
            EXPECT_EQ(e.cyclesPerElement, ref.cyclesPerElement) << tag;
            EXPECT_EQ(e.ciHalfWidth, ref.ciHalfWidth) << tag;
            EXPECT_EQ(e.unitsMeasured, ref.unitsMeasured) << tag;
            EXPECT_EQ(e.rounds, ref.rounds) << tag;
            EXPECT_EQ(e.detailedTotals.totalCycles,
                      ref.detailedTotals.totalCycles)
                << tag;
            EXPECT_EQ(e.detailedTotals.misses,
                      ref.detailedTotals.misses)
                << tag;
        }
    }
}

TEST(SamplingMm, CiCoversTheExactCpeOnEveryBankMapping)
{
    constexpr std::uint64_t kSeeds = 8;
    std::vector<std::pair<std::string, MachineParams>> machines;
    machines.emplace_back("low-order", paperMachineM32());
    MachineParams skewed = paperMachineM32();
    skewed.bankMapping = BankMapping::Skewed;
    machines.emplace_back("skewed", skewed);

    std::uint64_t covered = 0;
    std::uint64_t trials = 0;
    for (const auto &[wname, trace] : workloads()) {
        for (const auto &[mname, machine] : machines) {
            MmSimulator sim(machine);
            sim.setEngine(SimEngine::Scalar);
            const SimResult r = sim.run(*trace);
            const double exact = static_cast<double>(r.totalCycles) /
                                 static_cast<double>(r.results);
            for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
                const auto est =
                    sampleMm(machine, *trace, testOptions(seed));
                ASSERT_TRUE(est.ok()) << wname << "/" << mname;
                ++trials;
                if (std::abs(est.value().cyclesPerElement - exact) <=
                    est.value().ciHalfWidth)
                    ++covered;
            }
        }
    }
    EXPECT_GE(covered * 10, trials * 9)
        << covered << " of " << trials << " intervals covered";
}

TEST(SamplingMm, WorkerCountDoesNotChangeTheEstimate)
{
    MachineParams machine = paperMachineM32();
    machine.bankMapping = BankMapping::Skewed;
    const Trace &trace = *workloads()[2].second;
    SamplingEstimate ref;
    bool have_ref = false;
    for (const unsigned jobs : {1u, 4u, 8u}) {
        SamplingOptions opts = testOptions(5);
        opts.jobs = jobs;
        const auto est = sampleMm(machine, trace, opts);
        ASSERT_TRUE(est.ok());
        if (!have_ref) {
            ref = est.value();
            have_ref = true;
            continue;
        }
        EXPECT_EQ(est.value().cyclesPerElement, ref.cyclesPerElement);
        EXPECT_EQ(est.value().ciHalfWidth, ref.ciHalfWidth);
        EXPECT_EQ(est.value().unitsMeasured, ref.unitsMeasured);
    }
}

TEST(SamplingLivePoints, EncodeDecodeRoundTrip)
{
    LivePoint lp;
    lp.unit = 9;
    lp.captureOp = 7;
    lp.unitBegin = 9;
    lp.unitEnd = 12;
    lp.cacheState = {3, 17, 0, ~std::uint64_t{0}};
    lp.prewarmedLines = {1024, 4097};

    const auto decoded = decodeLivePoint(9, encodeLivePoint(lp));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().unit, lp.unit);
    EXPECT_EQ(decoded.value().captureOp, lp.captureOp);
    EXPECT_EQ(decoded.value().unitBegin, lp.unitBegin);
    EXPECT_EQ(decoded.value().unitEnd, lp.unitEnd);
    EXPECT_EQ(decoded.value().cacheState, lp.cacheState);
    EXPECT_EQ(decoded.value().prewarmedLines, lp.prewarmedLines);
}

TEST(SamplingLivePoints, DecodeRejectsCorruptRows)
{
    EXPECT_FALSE(decodeLivePoint(0, {"1", "2"}).ok());
    EXPECT_FALSE(decodeLivePoint(0, {"1", "2", "3", "nope"}).ok());
    // Declared cache words exceed the row.
    EXPECT_FALSE(decodeLivePoint(0, {"1", "2", "3", "9", "5"}).ok());
    // Fields are unsigned and must be the whole string: no sign (a
    // negated "-1" used to wrap to 2^64 - 1), no leading space.
    EXPECT_FALSE(decodeLivePoint(0, {"-1", "0", "1", "0"}).ok());
    EXPECT_FALSE(decodeLivePoint(0, {" 7", "0", "1", "0"}).ok());
    EXPECT_FALSE(decodeLivePoint(0, {"+7", "0", "1", "0"}).ok());
    EXPECT_FALSE(decodeLivePoint(0, {"0", "0", "1", "1", "-1"}).ok());
}

TEST(SamplingLivePoints, JournalRoundTripsThroughTheCheckpoint)
{
    const Trace &trace = *workloads()[2].second;
    CacheConfig config;
    config.organization = Organization::PrimeMapped;

    TempPath journal("live_points.ckpt");
    SamplingOptions opts = testOptions(2);
    opts.livePointJournal = journal.str();
    const auto est =
        sampleCc(paperMachineM32(), config, trace, opts);
    ASSERT_TRUE(est.ok());

    const auto replay = readCheckpoint(journal.str());
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value().header.label, "live_points");
    EXPECT_EQ(replay.value().header.points, est.value().unitsTotal);
    EXPECT_EQ(replay.value().done.size(), est.value().unitsMeasured);
    for (const auto &[unit, row] : replay.value().done) {
        const auto lp = decodeLivePoint(unit, row);
        ASSERT_TRUE(lp.ok()) << "unit " << unit;
        EXPECT_LE(lp.value().captureOp, lp.value().unitBegin);
        EXPECT_LT(lp.value().unitBegin, lp.value().unitEnd);
        // The snapshot must restore into a same-geometry cache.
        const auto cache = tryMakeCache(config);
        ASSERT_TRUE(cache.ok());
        EXPECT_TRUE(cache.value()->restoreState(lp.value().cacheState))
            << "unit " << unit;
    }
}

TEST(SamplingApi, RejectsBadOptionsAndEmptyTraces)
{
    const Trace empty;
    EXPECT_FALSE(
        sampleCc(paperMachineM32(), CacheConfig{}, empty).ok());
    EXPECT_FALSE(sampleMm(paperMachineM32(), empty).ok());

    const Trace &trace = *workloads()[0].second;
    SamplingOptions opts;
    opts.unitElements = 0;
    EXPECT_FALSE(
        sampleCc(paperMachineM32(), CacheConfig{}, trace, opts).ok());
    opts = SamplingOptions{};
    opts.targetRelativeCi = 0.0;
    EXPECT_FALSE(sampleMm(paperMachineM32(), trace, opts).ok());
    opts = SamplingOptions{};
    opts.confidence = 1.5;
    EXPECT_FALSE(
        sampleCc(paperMachineM32(), CacheConfig{}, trace, opts).ok());
}

TEST(SamplingApi, PublishesCounters)
{
    const Trace &trace = *workloads()[0].second;
    ObsRegistry registry;
    SamplingOptions opts = testOptions(1);
    opts.registry = &registry;
    const auto est =
        sampleCc(paperMachineM32(), CacheConfig{}, trace, opts);
    ASSERT_TRUE(est.ok());

    const Counter *total = registry.findCounter("sampling.units_total");
    const Counter *measured =
        registry.findCounter("sampling.units_measured");
    const Counter *skipped =
        registry.findCounter("sampling.units_skipped");
    const Counter *rounds = registry.findCounter("sampling.rounds");
    ASSERT_NE(total, nullptr);
    ASSERT_NE(measured, nullptr);
    ASSERT_NE(skipped, nullptr);
    ASSERT_NE(rounds, nullptr);
    EXPECT_EQ(total->value, est.value().unitsTotal);
    EXPECT_EQ(measured->value, est.value().unitsMeasured);
    EXPECT_EQ(total->value, measured->value + skipped->value);
    EXPECT_EQ(rounds->value, est.value().rounds);
    EXPECT_NE(registry.findCounter("sampling.achieved_ci_ppm"),
              nullptr);
    EXPECT_NE(registry.findCounter("sampling.ci_met"), nullptr);
}

} // namespace
} // namespace vcache
