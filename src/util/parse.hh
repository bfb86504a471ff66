/**
 * @file
 * Strict whole-string number parsing, shared by every text input (CLI
 * flags, key=value configs, fault specs, live-point journals).
 *
 * std::strtoull/std::stoull skip leading whitespace, accept a sign
 * (negating an unsigned value wraps: "-1" becomes 2^64 - 1) and, with
 * std::sto*, silently ignore trailing garbage.  std::from_chars does
 * none of that: the whole string must be the number, an unsigned type
 * takes neither '-' nor '+', and overflow is reported instead of
 * wrapped or clamped.
 */

#ifndef VCACHE_UTIL_PARSE_HH
#define VCACHE_UTIL_PARSE_HH

#include <charconv>
#include <string_view>
#include <system_error>

namespace vcache
{

/** Why parseWhole() refused its input. */
enum class ParseStatus
{
    Ok,
    /** Not a number of the requested type, or trailing characters. */
    Malformed,
    /** A well-formed number that does not fit the type. */
    OutOfRange,
};

/**
 * Parse all of `text` as one T (an integer or floating-point type).
 * `out` is written only on ParseStatus::Ok.
 */
template <typename T>
ParseStatus
parseWhole(std::string_view text, T &out)
{
    T value{};
    const char *last = text.data() + text.size();
    const auto res = std::from_chars(text.data(), last, value);
    if (res.ec == std::errc::result_out_of_range)
        return ParseStatus::OutOfRange;
    if (res.ec != std::errc() || res.ptr != last)
        return ParseStatus::Malformed;
    out = value;
    return ParseStatus::Ok;
}

} // namespace vcache

#endif // VCACHE_UTIL_PARSE_HH
