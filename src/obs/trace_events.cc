#include "obs/trace_events.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/json.hh"

namespace vcache
{

namespace
{

/** Render a double as a JSON number (finite values only). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

} // namespace

TraceEventWriter::TraceEventWriter(std::ostream &os,
                                   std::uint64_t max_events)
    : out(os), maxEvents(max_events)
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

TraceEventWriter::~TraceEventWriter()
{
    finish();
}

bool
TraceEventWriter::admit()
{
    if (finished || writtenCount >= maxEvents) {
        ++droppedCount;
        return false;
    }
    return true;
}

void
TraceEventWriter::emit(const std::string &record)
{
    out << (anyEvent ? ",\n" : "\n") << record;
    anyEvent = true;
    ++writtenCount;
}

void
TraceEventWriter::beginDuration(const std::string &cat,
                                const std::string &name, Cycles ts,
                                std::uint32_t tid,
                                const std::string &args_json)
{
    if (!admit())
        return;
    std::ostringstream os;
    os << "{\"name\":\"" << json::escape(name) << "\",\"cat\":\""
       << json::escape(cat) << "\",\"ph\":\"B\",\"ts\":" << ts
       << ",\"pid\":0,\"tid\":" << tid;
    if (!args_json.empty())
        os << ",\"args\":{" << args_json << "}";
    os << "}";
    emit(os.str());
}

void
TraceEventWriter::endDuration(Cycles ts, std::uint32_t tid)
{
    if (!admit())
        return;
    std::ostringstream os;
    os << "{\"ph\":\"E\",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << tid
       << "}";
    emit(os.str());
}

void
TraceEventWriter::instant(const std::string &cat,
                          const std::string &name, Cycles ts,
                          std::uint32_t tid,
                          const std::string &args_json)
{
    if (!admit())
        return;
    std::ostringstream os;
    os << "{\"name\":\"" << json::escape(name) << "\",\"cat\":\""
       << json::escape(cat) << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts
       << ",\"pid\":0,\"tid\":" << tid;
    if (!args_json.empty())
        os << ",\"args\":{" << args_json << "}";
    os << "}";
    emit(os.str());
}

void
TraceEventWriter::counter(const std::string &name, Cycles ts,
                          std::uint32_t tid, double value)
{
    if (!admit())
        return;
    std::ostringstream os;
    os << "{\"name\":\"" << json::escape(name)
       << "\",\"ph\":\"C\",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"value\":" << jsonNumber(value) << "}}";
    emit(os.str());
}

void
TraceEventWriter::threadName(std::uint32_t tid, const std::string &name)
{
    if (finished)
        return;
    // Metadata is exempt from the cap: lane names must survive even
    // on a capped trace, and there are only a handful of them.
    std::ostringstream os;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << tid << ",\"args\":{\"name\":\"" << json::escape(name) << "\"}}";
    out << (anyEvent ? ",\n" : "\n") << os.str();
    anyEvent = true;
}

void
TraceEventWriter::finish()
{
    if (finished)
        return;
    if (droppedCount != 0) {
        // The cap is never silent: the trace itself records how many
        // events it is missing.
        std::ostringstream os;
        os << "{\"name\":\"dropped_events\",\"ph\":\"C\",\"ts\":0,"
           << "\"pid\":0,\"tid\":0,\"args\":{\"value\":"
           << droppedCount << "}}";
        out << (anyEvent ? ",\n" : "\n") << os.str();
        anyEvent = true;
    }
    out << "\n]}\n";
    out.flush();
    finished = true;
}

} // namespace vcache
