/**
 * @file
 * A trace source that trips a cancel token mid-run, for the suites
 * that check a cancelled run (batched_test) or a cancelled gang lane
 * (gang_test).
 */

#ifndef VCACHE_TESTS_SIM_CANCELLING_SOURCE_HH
#define VCACHE_TESTS_SIM_CANCELLING_SOURCE_HH

#include <cstdint>

#include "sim/cancel.hh"
#include "trace/source.hh"

namespace vcache
{

/** Trips the cancel token just before the Nth op is produced. */
class CancellingSource final : public TraceSource
{
  public:
    CancellingSource(TraceSource &inner, CancelToken &token,
                     std::uint64_t after)
        : inner(inner), token(token), after(after)
    {
    }

    bool
    next(VectorOp &op) override
    {
        if (served == after)
            token.requestCancel(CancelToken::Reason::Cancelled);
        ++served;
        return inner.next(op);
    }

    void
    reset() override
    {
        served = 0;
        inner.reset();
    }

    std::uint64_t
    readFootprint() const override
    {
        return inner.readFootprint();
    }

  private:
    TraceSource &inner;
    CancelToken &token;
    std::uint64_t after;
    std::uint64_t served = 0;
};

} // namespace vcache

#endif // VCACHE_TESTS_SIM_CANCELLING_SOURCE_HH
