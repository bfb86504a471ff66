/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Each thread that calls into a layer owns one Lane; a SpanScope
 * around a public call records (name, start, end, parent, id) into
 * that lane with no locking.  A null lane makes every scope a no-op,
 * so the same code serves the untraced run.  At exit the recorder
 * computes per-name self times (a span's duration minus what its
 * child spans cover) and writes Chrome trace-event JSON.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Nanoseconds of CPU time the calling thread has used. */
inline std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** Nanoseconds of CPU time every thread of this process has used. */
inline std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** One recorded span. */
struct Span
{
    /** Layer name; must be a string literal (spans keep the pointer). */
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the same lane, or -1. */
    std::int32_t parent = -1;
    /** Point, group or request id the span works for. */
    std::uint64_t id = 0;
};

/** Spans of one thread, in start order. */
struct Lane
{
    std::vector<Span> spans;
    /** Innermost open span, or -1. */
    std::int32_t open = -1;
};

/** RAII span around one call; a no-op on a null lane. */
class SpanScope
{
  public:
    SpanScope(Lane *lane, const char *name, std::uint64_t id = 0);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Lane *lane;
    std::int32_t index = -1;
};

/**
 * Record a span whose times were taken already, as a child of the
 * lane's innermost open span.  A no-op on a null lane.
 */
void recordSpan(Lane *lane, const char *name, std::int64_t startNs,
                std::int64_t endNs, std::uint64_t id = 0);

/** Aggregate of every span with one name. */
struct LayerTotals
{
    std::uint64_t count = 0;
    /** Sum of durations. */
    std::int64_t totalNs = 0;
    /** Sum of durations minus the time child spans cover. */
    std::int64_t selfNs = 0;
};

/** A fixed set of lanes, one per recording thread. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(unsigned lanes);

    Lane *lane(unsigned i) { return &lanes[i]; }
    unsigned laneCount() const { return unsigned(lanes.size()); }

    /** Per-name totals over every lane. */
    std::map<std::string, LayerTotals> totals() const;

    /**
     * Write Chrome trace-event JSON ("X" complete events, one tid per
     * lane).  At most `maxEvents` spans are written; the rest are
     * counted in a "dropped_spans" counter event.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::vector<std::string> &laneNames,
                          std::size_t maxEvents) const;

  private:
    std::vector<Lane> lanes;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
