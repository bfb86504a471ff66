/**
 * @file
 * Chrome trace-event / Perfetto JSON writer.
 *
 * Emits the JSON-object flavour of the trace-event format
 * (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
 *
 *   {"traceEvents":[
 *     {"name":"...","cat":"...","ph":"B","ts":123,"pid":0,"tid":0},
 *     ...
 *   ],"displayTimeUnit":"ms"}
 *
 * so a simulator run opens directly in ui.perfetto.dev or
 * chrome://tracing.  One simulated cycle maps to one microsecond of
 * trace time (`ts` is in microseconds by spec); pid 0 is the
 * simulated machine and each simulator instance gets its own tid
 * lane, named via thread_name metadata.
 *
 * The writer streams events as they happen -- no buffering beyond the
 * ostream's -- and enforces a configurable event cap so a pathological
 * run cannot write an unbounded file: past the cap, non-metadata
 * events are counted as dropped (reported by dropped() and as a final
 * counter event) instead of silently truncating the run's story.
 */

#ifndef VCACHE_OBS_TRACE_EVENTS_HH
#define VCACHE_OBS_TRACE_EVENTS_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "util/types.hh"

namespace vcache
{

/** Streaming trace-event JSON writer. */
class TraceEventWriter
{
  public:
    /** Default cap on emitted events (instants dominate; B/E pairs
     *  and counters are low-rate). */
    static constexpr std::uint64_t kDefaultMaxEvents = 2'000'000;

    /**
     * @param os destination stream (not owned; must outlive finish())
     * @param max_events cap on non-metadata events
     */
    explicit TraceEventWriter(std::ostream &os,
                              std::uint64_t max_events = kDefaultMaxEvents);

    /** Writers stream shared state; no copies. */
    TraceEventWriter(const TraceEventWriter &) = delete;
    TraceEventWriter &operator=(const TraceEventWriter &) = delete;

    ~TraceEventWriter();

    /**
     * Begin a duration slice ("ph":"B").  `args_json` is either empty
     * or the body of a JSON object ("\"stride\":8,\"len\":1024").
     */
    void beginDuration(const std::string &cat, const std::string &name,
                       Cycles ts, std::uint32_t tid,
                       const std::string &args_json = "");

    /** End the innermost duration slice on `tid` ("ph":"E"). */
    void endDuration(Cycles ts, std::uint32_t tid);

    /** Thread-scoped instant event ("ph":"i","s":"t"). */
    void instant(const std::string &cat, const std::string &name,
                 Cycles ts, std::uint32_t tid,
                 const std::string &args_json = "");

    /** Counter sample ("ph":"C"): one numeric series value. */
    void counter(const std::string &name, Cycles ts, std::uint32_t tid,
                 double value);

    /** Name a tid lane via thread_name metadata (not capped). */
    void threadName(std::uint32_t tid, const std::string &name);

    /** Events dropped by the cap so far. */
    std::uint64_t dropped() const { return droppedCount; }

    /** Events actually written so far. */
    std::uint64_t written() const { return writtenCount; }

    /**
     * Close the JSON document.  Safe to call once; the destructor
     * calls it if the caller did not.
     */
    void finish();

  private:
    /** True if the cap admits one more event. */
    bool admit();

    void emit(const std::string &record);

    std::ostream &out;
    std::uint64_t maxEvents;
    std::uint64_t writtenCount = 0;
    std::uint64_t droppedCount = 0;
    bool anyEvent = false;
    bool finished = false;
};

} // namespace vcache

#endif // VCACHE_OBS_TRACE_EVENTS_HH
