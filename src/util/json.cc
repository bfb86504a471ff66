#include "util/json.hh"

#include <charconv>

namespace vcache::json
{

std::string
escape(std::string_view s)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += digits[(c >> 4) & 0xf];
                out += digits[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/** A number token parsed whole as T; nothing for any other value. */
template <class T>
std::optional<T>
fromToken(const Value &v)
{
    T out{};
    const char *last = v.text.data() + v.text.size();
    if (v.kind != Value::Kind::Number)
        return std::nullopt;
    const auto res = std::from_chars(v.text.data(), last, out);
    if (res.ec != std::errc() || res.ptr != last)
        return std::nullopt;
    return out;
}

Error
syntax(const std::string &what)
{
    return makeError(Errc::InvalidConfig, what);
}

/**
 * Scanner for one flat object.  Numbers keep their raw token so
 * 64-bit integers survive without a round-trip through double.
 */
class Scanner
{
  public:
    explicit Scanner(std::string_view line) : s(line) {}

    Expected<Object>
    parse()
    {
        Object out;
        skipWs();
        if (!consume('{'))
            return syntax("expected '{'");
        skipWs();
        if (consume('}'))
            return finish(out);
        for (;;) {
            skipWs();
            std::string key;
            if (!string(key))
                return syntax("expected a string key");
            skipWs();
            if (!consume(':'))
                return syntax("expected ':' after key \"" + key +
                              "\"");
            skipWs();
            Value v;
            if (!value(v))
                return syntax("bad value for key \"" + key + "\"");
            out[std::move(key)] = std::move(v);
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return finish(out);
            return syntax("expected ',' or '}'");
        }
    }

  private:
    Expected<Object>
    finish(Object &out)
    {
        skipWs();
        if (pos != s.size())
            return syntax("trailing bytes after the object");
        return std::move(out);
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (s.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    /** JSON string with escapes; \uXXXX outside surrogates only. */
    bool
    string(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < s.size()) {
            const char c = s[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control characters are invalid
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= s.size())
                return false;
            const char e = s[pos++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out.push_back(e);
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                unsigned cp = 0;
                if (pos + 4 > s.size())
                    return false;
                const auto res = std::from_chars(
                    s.data() + pos, s.data() + pos + 4, cp, 16);
                if (res.ec != std::errc() ||
                    res.ptr != s.data() + pos + 4)
                    return false;
                pos += 4;
                if (cp >= 0xd800 && cp <= 0xdfff)
                    return false; // no surrogate pairs
                // UTF-8 encode (cp <= 0xffff here).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
              }
              default:
                return false;
            }
        }
        return false; // ran out of line inside the string
    }

    bool
    number(Value &v)
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        bool digits = false;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
            ++pos;
            digits = true;
        }
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
                ++pos;
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
                ++pos;
        }
        if (!digits)
            return false;
        v.kind = Value::Kind::Number;
        v.text = s.substr(start, pos - start);
        return true;
    }

    /** "[" string ("," string)* "]" or "[]". */
    bool
    stringArray(std::vector<std::string> &out)
    {
        consume('[');
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            skipWs();
            std::string item;
            if (!string(item))
                return false;
            out.push_back(std::move(item));
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    value(Value &v)
    {
        if (pos >= s.size())
            return false;
        const char c = s[pos];
        if (c == '"') {
            v.kind = Value::Kind::String;
            return string(v.text);
        }
        if (c == '[') {
            v.kind = Value::Kind::StringArray;
            return stringArray(v.items);
        }
        if (c == 't') {
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            v.kind = Value::Kind::Bool;
            v.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            v.kind = Value::Kind::Null;
            return literal("null");
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return number(v);
        return false; // nested objects are not flat
    }

    std::string_view s;
    std::size_t pos = 0;
};

} // namespace

std::optional<std::uint64_t>
Value::asUint() const
{
    return fromToken<std::uint64_t>(*this);
}

std::optional<double>
Value::asDouble() const
{
    return fromToken<double>(*this);
}

std::optional<bool>
Value::asBool() const
{
    if (kind != Kind::Bool)
        return std::nullopt;
    return boolean;
}

std::optional<std::string>
Value::asString() const
{
    if (kind != Kind::String)
        return std::nullopt;
    return text;
}

Expected<Object>
parseObject(std::string_view line)
{
    return Scanner(line).parse();
}

} // namespace vcache::json
