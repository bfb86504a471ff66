#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

namespace perfbench
{

SpanScope::SpanScope(Lane *lane, const char *name, std::uint64_t id)
    : lane(lane)
{
    if (!lane)
        return;
    index = static_cast<std::int32_t>(lane->spans.size());
    lane->spans.push_back(Span{name, nowNs(), 0, lane->open, id});
    lane->open = index;
}

SpanScope::~SpanScope()
{
    if (!lane)
        return;
    Span &span = lane->spans[static_cast<std::size_t>(index)];
    span.endNs = nowNs();
    lane->open = span.parent;
}

void
recordSpan(Lane *lane, const char *name, std::int64_t startNs,
           std::int64_t endNs, std::uint64_t id)
{
    if (lane)
        lane->spans.push_back(Span{name, startNs, endNs, lane->open, id});
}

SpanRecorder::SpanRecorder(unsigned lanes) : lanes(lanes) {}

std::map<std::string, LayerTotals>
SpanRecorder::totals() const
{
    std::map<std::string, LayerTotals> out;
    for (const Lane &lane : lanes) {
        for (const Span &span : lane.spans) {
            const std::int64_t dur = span.endNs - span.startNs;
            LayerTotals &t = out[span.name];
            t.count += 1;
            t.totalNs += dur;
            t.selfNs += dur;
            if (span.parent >= 0)
                out[lane.spans[static_cast<std::size_t>(span.parent)]
                        .name]
                    .selfNs -= dur;
        }
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::vector<std::string> &laneNames,
                               std::size_t maxEvents) const
{
    std::int64_t base = std::numeric_limits<std::int64_t>::max();
    for (const Lane &lane : lanes)
        if (!lane.spans.empty())
            base = std::min(base, lane.spans.front().startNs);
    if (base == std::numeric_limits<std::int64_t>::max())
        base = 0;

    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (std::size_t t = 0; t < lanes.size(); ++t) {
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":"
            << t << ",\"args\":{\"name\":\""
            << (t < laneNames.size() ? laneNames[t] : "lane") << "\"}}";
    }

    // Spread the event budget evenly over the lanes, earliest first.
    const std::size_t perLane =
        lanes.empty() ? 0 : maxEvents / lanes.size();
    std::uint64_t dropped = 0;
    std::int64_t lastTs = 0;
    char buf[64];
    for (std::size_t t = 0; t < lanes.size(); ++t) {
        const auto &spans = lanes[t].spans;
        const std::size_t kept = std::min(perLane, spans.size());
        dropped += spans.size() - kept;
        for (std::size_t i = 0; i < kept; ++i) {
            const Span &s = spans[i];
            sep();
            std::snprintf(buf, sizeof buf, "%.3f",
                          double(s.startNs - base) / 1e3);
            out << "{\"name\":\"" << s.name
                << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":"
                << buf;
            std::snprintf(buf, sizeof buf, "%.3f",
                          double(s.endNs - s.startNs) / 1e3);
            out << ",\"dur\":" << buf << ",\"pid\":1,\"tid\":" << t
                << ",\"args\":{\"id\":" << s.id
                << ",\"parent\":" << s.parent << "}}";
            lastTs = std::max(lastTs, s.endNs - base);
        }
    }
    sep();
    std::snprintf(buf, sizeof buf, "%.3f", double(lastTs) / 1e3);
    out << "{\"name\":\"dropped_spans\",\"ph\":\"C\",\"ts\":" << buf
        << ",\"pid\":1,\"tid\":0,\"args\":{\"value\":" << dropped
        << "}}\n],\"displayTimeUnit\":\"ms\"}\n";
    return out.good();
}

} // namespace perfbench
