/**
 * @file
 * Cooperative cancellation for long-running simulations.
 *
 * A CancelToken is owned by one worker thread and watched by others
 * (the sweep watchdog, a signal drain).  The owner starts a new
 * *epoch* for every unit of work; a watcher cancels the epoch it
 * snapshotted, so a stale deadline can never kill the point that
 * started after the measurement was taken (the classic watchdog
 * race).  Everything lives in one atomic word:
 *
 *   word = (epoch << 2) | reason
 *
 * The simulators poll cancelled() in their outer (per-vector-op)
 * loop -- one relaxed load per vector operation, invisible next to
 * the thousands of element accesses each op performs -- and raise
 * VcError(Timeout|Cancelled) when it trips.
 */

#ifndef VCACHE_SIM_CANCEL_HH
#define VCACHE_SIM_CANCEL_HH

#include <atomic>
#include <cstdint>

#include "util/result.hh"

namespace vcache
{

/** Epoch-tagged cancellation flag; see the file comment. */
class CancelToken
{
  public:
    /** Why the current epoch was cancelled. */
    enum class Reason : std::uint8_t
    {
        None = 0,
        Cancelled = 1,
        Timeout = 2,
    };

    /**
     * Owner only: begin a new unit of work, clearing any pending
     * cancellation and invalidating outstanding snapshots.
     */
    void
    beginEpoch()
    {
        const std::uint64_t w = word.load(std::memory_order_relaxed);
        word.store(((w >> 2) + 1) << 2, std::memory_order_release);
    }

    /** Watcher: opaque state to pass to requestCancelIf later. */
    std::uint64_t
    snapshot() const
    {
        return word.load(std::memory_order_acquire);
    }

    /**
     * Watcher: cancel the epoch captured in `snap`.  Fails (returns
     * false) when the owner has since begun a new epoch or another
     * watcher already cancelled this one.
     */
    bool
    requestCancelIf(std::uint64_t snap, Reason reason)
    {
        if (snap & 3u)
            return false; // that epoch was already cancelled
        return word.compare_exchange_strong(
            snap, snap | static_cast<std::uint64_t>(reason),
            std::memory_order_acq_rel, std::memory_order_relaxed);
    }

    /** Cancel the *current* epoch unconditionally. */
    void
    requestCancel(Reason reason)
    {
        std::uint64_t w = word.load(std::memory_order_relaxed);
        for (;;) {
            if (w & 3u)
                return; // already cancelled
            if (word.compare_exchange_weak(
                    w, w | static_cast<std::uint64_t>(reason),
                    std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return;
        }
    }

    /** Polled by the simulation loop: is the current epoch cancelled? */
    bool
    cancelled() const
    {
        return (word.load(std::memory_order_relaxed) & 3u) != 0;
    }

    /** Reason of the current epoch's cancellation (None if live). */
    Reason
    reason() const
    {
        return static_cast<Reason>(
            word.load(std::memory_order_acquire) & 3u);
    }

  private:
    std::atomic<std::uint64_t> word{0};
};

/**
 * The structured error for a tripped token: Errc::Timeout for a
 * watchdog deadline, Errc::Cancelled otherwise.
 */
inline Error
cancelledError(const CancelToken &token)
{
    if (token.reason() == CancelToken::Reason::Timeout)
        return makeError(Errc::Timeout,
                         "simulation exceeded the per-point deadline");
    return makeError(Errc::Cancelled, "simulation cancelled");
}

/**
 * Raise cancelledError() for a tripped token.  The simulators call
 * this from their polling loop; the sweep's per-point boundary
 * catches it.
 */
[[noreturn]] inline void
throwCancelled(const CancelToken &token)
{
    throw VcError(cancelledError(token));
}

} // namespace vcache

#endif // VCACHE_SIM_CANCEL_HH
