/**
 * @file
 * The one JSON layer: a string escaper for every writer and a strict
 * reader for the one-line flat objects the journals and the wire
 * protocol exchange.
 *
 * Writers (StatDump, trace events, sweep telemetry, checkpoint
 * records, protocol responses) keep their own literal layouts --
 * byte-identity pins them -- and pass every embedded string through
 * escape().  The reader serves the checkpoint and memo journals
 * (sim/checkpoint.hh) and request lines (serve/proto.hh).  It
 * accepts one object whose values are strings, numbers, true, false,
 * null or arrays of strings; anything nested deeper, raw control
 * bytes inside strings, \u escapes naming surrogates, and bytes after
 * the closing brace are errors.  Callers layer their own key checks
 * on top.
 */

#ifndef VCACHE_UTIL_JSON_HH
#define VCACHE_UTIL_JSON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hh"

namespace vcache::json
{

/**
 * `s` escaped for use between JSON quotes: '"', '\\', '\n', '\r' and
 * '\t' as two-character escapes, any other byte below 0x20 as \u00xx,
 * every other byte (UTF-8 included) raw.
 */
std::string escape(std::string_view s);

/** One member value of a flat object. */
struct Value
{
    enum class Kind
    {
        String,
        Number,
        Bool,
        Null,
        StringArray,
    };
    Kind kind = Kind::Null;
    /** Decoded text (String) or the raw numeric token (Number). */
    std::string text;
    bool boolean = false;
    /** Decoded elements (StringArray). */
    std::vector<std::string> items;

    /** A number that is a whole uint64 (no sign, fraction, overflow). */
    std::optional<std::uint64_t> asUint() const;
    /** A number whose whole token is a double in range. */
    std::optional<double> asDouble() const;
    std::optional<bool> asBool() const;
    std::optional<std::string> asString() const;
};

/** Members by name; a duplicate key keeps its last value. */
using Object = std::map<std::string, Value, std::less<>>;

/**
 * Parse one line holding one flat object.  Failure is an
 * Errc::InvalidConfig whose message names the first problem
 * ("expected '{'", "bad value for key \"k\"", ...).
 */
Expected<Object> parseObject(std::string_view line);

} // namespace vcache::json

#endif // VCACHE_UTIL_JSON_HH
