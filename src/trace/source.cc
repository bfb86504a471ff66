#include "trace/source.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vcache
{

VcmTraceSource::VcmTraceSource(const VcmParams &params_,
                               std::uint64_t seed)
    : params(params_), seedValue(seed), rng(seed),
      dist1(params_.pStride1First, params_.maxStride),
      dist2(params_.pStride1Second, params_.maxStride),
      // The second vector's length per Section 3.1: B * P_ds (at
      // least one element whenever double streams occur at all).
      secondLen(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(params_.blockingFactor) *
                 params_.pDoubleStream)))
{
    vc_assert(params.blockingFactor >= 1,
              "blocking factor must be positive");
    vc_assert(params.reuseFactor >= 1, "reuse factor must be positive");
    vc_assert(params.pDoubleStream >= 0.0 && params.pDoubleStream <= 1.0,
              "P_ds must be a probability");
}

bool
VcmTraceSource::next(VectorOp &op)
{
    if (blk >= params.blocks)
        return false;

    if (pass == 0) {
        // Each block has its own stride, drawn once: a blocked
        // algorithm accesses one block with a consistent pattern.
        stride1 = params.fixedStride1
                      ? params.fixedStride1
                      : static_cast<std::int64_t>(dist1.sample(rng));
        // Blocks are laid out far enough apart not to overlap even at
        // the maximum stride.
        blockBase = blk * (params.blockingFactor * params.maxStride + 1);
    }

    op = VectorOp{};
    op.first = VectorRef{blockBase, stride1, params.blockingFactor};
    if (rng.bernoulli(params.pDoubleStream)) {
        const std::int64_t s2 =
            params.fixedStride2
                ? params.fixedStride2
                : static_cast<std::int64_t>(dist2.sample(rng));
        // The second stream starts a random bank/line distance D away
        // from the first, as in the analysis.
        const Addr d = rng.uniformInt(1, params.maxStride);
        op.second = VectorRef{blockBase + d, s2, secondLen};
    }

    if (++pass == params.reuseFactor) {
        pass = 0;
        ++blk;
    }
    return true;
}

void
VcmTraceSource::reset()
{
    rng.seed(seedValue);
    blk = 0;
    pass = 0;
    stride1 = 0;
    blockBase = 0;
}

std::uint64_t
VcmTraceSource::readFootprint() const
{
    VcmTraceSource copy(params, seedValue);
    return readFootprintBound(materializeTrace(copy));
}

MultistrideTraceSource::MultistrideTraceSource(
    const MultistrideParams &params_, std::uint64_t seed)
    : params(params_), seedValue(seed), rng(seed),
      dist(params_.pStride1, params_.maxStride)
{
    // Zero repeats means every sweep contributes no operations.
    if (params.reusePerStride == 0)
        sweep = params.sweeps;
}

bool
MultistrideTraceSource::next(VectorOp &op)
{
    if (sweep >= params.sweeps)
        return false;

    if (rep == 0) {
        current = VectorOp{};
        current.first =
            VectorRef{params.base,
                      static_cast<std::int64_t>(dist.sample(rng)),
                      params.length};
    }
    op = current;

    if (++rep == params.reusePerStride) {
        rep = 0;
        ++sweep;
    }
    return true;
}

void
MultistrideTraceSource::reset()
{
    rng.seed(seedValue);
    sweep = params.reusePerStride == 0 ? params.sweeps : 0;
    rep = 0;
    current = VectorOp{};
}

std::uint64_t
MultistrideTraceSource::readFootprint() const
{
    MultistrideTraceSource copy(params, seedValue);
    return readFootprintBound(materializeTrace(copy));
}

} // namespace vcache
