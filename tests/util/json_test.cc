#include "util/json.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace
{

using namespace vcache;
using Kind = json::Value::Kind;

/** The value of `key` in a line that must parse. */
json::Value
mustGet(const std::string &line, const std::string &key)
{
    auto obj = json::parseObject(line);
    EXPECT_TRUE(obj.ok()) << line << " -> "
                          << (obj.ok() ? "" : obj.error().message);
    if (!obj.ok() || !obj.value().count(key))
        return {};
    return obj.value().at(key);
}

TEST(Json, EscapeRoundTripBasics)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb"), "a\\nb");
    EXPECT_EQ(json::escape(std::string(1, '\x02')), "\\u0002");
}

TEST(Json, EscapesTraceEventStrings)
{
    EXPECT_EQ(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, EscapeNamesTabAndCrAndPassesOtherBytesRaw)
{
    EXPECT_EQ(json::escape("a\tb\rc"), "a\\tb\\rc");
    EXPECT_EQ(json::escape(std::string(1, '\0')), "\\u0000");
    EXPECT_EQ(json::escape("\x1f"), "\\u001f");
    EXPECT_EQ(json::escape("/\x7f\xc5\x81"), "/\x7f\xc5\x81");
}

TEST(Json, AcceptsFlatObjects)
{
    // line, key, kind, decoded text
    struct Case
    {
        const char *line;
        const char *key;
        Kind kind;
        std::string text;
    };
    const std::vector<Case> cases{
        {R"({"k":"v"})", "k", Kind::String, "v"},
        {R"( { "k" : "v" } )", "k", Kind::String, "v"},
        {"{\t\"k\":\"v\"}\r", "k", Kind::String, "v"},
        {R"({"k":""})", "k", Kind::String, ""},
        {R"({"k":"\"\\\/\b\f\n\r\t"})", "k", Kind::String,
         "\"\\/\b\f\n\r\t"},
        {R"({"k":"\u0041\u00e9\u0141\uffff"})", "k", Kind::String,
         "A\xc3\xa9\xc5\x81\xef\xbf\xbf"},
        {R"({"k":"\u0000"})", "k", Kind::String, std::string(1, '\0')},
        {"{\"k\":\"\xc5\x81\"}", "k", Kind::String, "\xc5\x81"},
        {R"({"k":-12.5e+3})", "k", Kind::Number, "-12.5e+3"},
        {R"({"k":18446744073709551616})", "k", Kind::Number,
         "18446744073709551616"},
        {R"({"k":true})", "k", Kind::Bool, ""},
        {R"({"k":null})", "k", Kind::Null, ""},
        {R"({"k":[]})", "k", Kind::StringArray, ""},
        {R"({"k":1,"k":"last"})", "k", Kind::String, "last"},
    };
    for (const auto &c : cases) {
        const json::Value v = mustGet(c.line, c.key);
        EXPECT_EQ(v.kind, c.kind) << c.line;
        EXPECT_EQ(v.text, c.text) << c.line;
    }
    EXPECT_TRUE(json::parseObject("{}").ok());
    EXPECT_EQ(mustGet(R"({"k":[ "a" , "b\n" ]})", "k").items,
              (std::vector<std::string>{"a", "b\n"}));
}

TEST(Json, RejectsEverythingElse)
{
    // line, the error message it must produce
    const std::vector<std::pair<std::string, std::string>> cases{
        {"", "expected '{'"},
        {"not json", "expected '{'"},
        {"[1,2]", "expected '{'"},
        {"{", "expected a string key"},
        {R"({k:1})", "expected a string key"},
        {R"({"k" 1})", "expected ':' after key \"k\""},
        {R"({"k":})", "bad value for key \"k\""},
        {R"({"k":1)", "expected ',' or '}'"},
        {R"({"k":1,})", "expected a string key"},
        {R"({"k":1} x)", "trailing bytes after the object"},
        {R"({"k":1}{})", "trailing bytes after the object"},
        {"{\"k\":1}\n", "trailing bytes after the object"},
        // Nesting beyond a string array.
        {R"({"k":{"a":1}})", "bad value for key \"k\""},
        {R"({"k":[["a"]]})", "bad value for key \"k\""},
        {R"({"k":[1]})", "bad value for key \"k\""},
        {R"({"k":["a",]})", "bad value for key \"k\""},
        {R"({"k":["a")", "bad value for key \"k\""},
        // Strings: surrogates, raw controls, bad escapes, no close.
        {R"({"k":"\ud800"})", "bad value for key \"k\""},
        {R"({"k":"\uDFFF"})", "bad value for key \"k\""},
        {R"({"k":"\u12"})", "bad value for key \"k\""},
        {R"({"k":"\u12g4"})", "bad value for key \"k\""},
        {R"({"k":"\x"})", "bad value for key \"k\""},
        {"{\"k\":\"a\tb\"}", "bad value for key \"k\""},
        {"{\"k\":\"a\x01\"}", "bad value for key \"k\""},
        {"{\"k\":\"open}", "bad value for key \"k\""},
        // Literals and numbers.
        {R"({"k":tru})", "bad value for key \"k\""},
        {R"({"k":-})", "bad value for key \"k\""},
        {R"({"k":.5})", "bad value for key \"k\""},
    };
    for (const auto &[line, message] : cases) {
        const auto obj = json::parseObject(line);
        ASSERT_FALSE(obj.ok()) << line;
        EXPECT_EQ(obj.error().code, Errc::InvalidConfig) << line;
        EXPECT_EQ(obj.error().message, message) << line;
    }
}

TEST(Json, TypedAccessorsCheckTheWholeToken)
{
    EXPECT_EQ(mustGet(R"({"k":18446744073709551615})", "k").asUint(),
              18446744073709551615ull);
    for (const char *line :
         {R"({"k":18446744073709551616})", R"({"k":-1})",
          R"({"k":1.0})", R"({"k":1e3})", R"({"k":"1"})",
          R"({"k":true})", R"({"k":null})"})
        EXPECT_FALSE(mustGet(line, "k").asUint()) << line;

    EXPECT_EQ(mustGet(R"({"k":-0.25e1})", "k").asDouble(), -2.5);
    EXPECT_EQ(mustGet(R"({"k":7})", "k").asDouble(), 7.0);
    for (const char *line :
         {R"({"k":1e999})", R"({"k":1e})", R"({"k":1e+})",
          R"({"k":"1"})"})
        EXPECT_FALSE(mustGet(line, "k").asDouble()) << line;

    EXPECT_EQ(mustGet(R"({"k":false})", "k").asBool(), false);
    EXPECT_FALSE(mustGet(R"({"k":0})", "k").asBool());
    EXPECT_EQ(mustGet(R"({"k":"s"})", "k").asString(), "s");
    EXPECT_FALSE(mustGet(R"({"k":1})", "k").asString());
    EXPECT_FALSE(mustGet(R"({"k":["s"]})", "k").asString());
}

TEST(Json, EscapeThenParseRoundTripsEveryByte)
{
    auto roundTrip = [](const std::string &s) {
        return mustGet("{\"k\":\"" + json::escape(s) + "\"}", "k")
            .asString();
    };
    for (unsigned b = 0; b < 256; ++b) {
        const std::string s(1, static_cast<char>(b));
        EXPECT_EQ(roundTrip(s), s) << "byte " << b;
    }
    Rng rng(16);
    for (int i = 0; i < 500; ++i) {
        std::string s(rng.uniformInt(0, 40), '\0');
        for (char &c : s)
            c = static_cast<char>(rng.uniformInt(0, 255));
        ASSERT_EQ(roundTrip(s), s) << "case " << i;
    }
}

} // namespace
