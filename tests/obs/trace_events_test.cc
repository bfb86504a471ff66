/** Tests for the Chrome trace-event / Perfetto JSON writer. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/trace_events.hh"

namespace vcache
{
namespace
{

/** Count occurrences of a substring. */
std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (auto pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + 1))
        ++count;
    return count;
}

TEST(TraceEventWriter, EmitsWellFormedDocument)
{
    std::ostringstream os;
    {
        TraceEventWriter w(os);
        w.threadName(0, "cc_direct");
        w.beginDuration("vop", "vector_op", 10, 0,
                        "\"stride\":8,\"length\":64");
        w.instant("miss", "conflict_miss", 12, 0, "\"set\":5");
        w.counter("miss_ratio", 15, 0, 0.25);
        w.endDuration(20, 0);
        EXPECT_EQ(w.written(), 4u);
        EXPECT_EQ(w.dropped(), 0u);
    } // destructor finishes the document

    const auto out = os.str();
    EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
                        0),
              0u);
    EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"stride\":8,\"length\":64}"),
              std::string::npos);
    EXPECT_NE(out.find("]}"), std::string::npos);
    // Balanced braces is a cheap well-formedness proxy (the python
    // validator in scripts/validate_trace.py does the real parse).
    EXPECT_EQ(countOf(out, "{"), countOf(out, "}"));
}

TEST(TraceEventWriter, CapDropsAndReports)
{
    std::ostringstream os;
    {
        TraceEventWriter w(os, 2);
        for (int i = 0; i < 5; ++i)
            w.instant("x", "e", static_cast<Cycles>(i), 0);
        // Metadata is exempt from the cap.
        w.threadName(0, "lane");
        EXPECT_EQ(w.written(), 2u);
        EXPECT_EQ(w.dropped(), 3u);
    }
    const auto out = os.str();
    // The cap is never silent: the dropped count rides in the trace.
    EXPECT_NE(out.find("dropped_events"), std::string::npos);
    EXPECT_NE(out.find("\"value\":3"), std::string::npos);
    EXPECT_NE(out.find("lane"), std::string::npos);
}

TEST(TraceEventWriter, FinishIsIdempotent)
{
    std::ostringstream os;
    TraceEventWriter w(os);
    w.instant("x", "e", 1, 0);
    w.finish();
    const auto len = os.str().size();
    w.finish();
    w.instant("x", "late", 2, 0); // dropped after finish
    EXPECT_EQ(os.str().size(), len);
    EXPECT_EQ(w.dropped(), 1u);
}

} // namespace
} // namespace vcache
