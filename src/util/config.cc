#include "util/config.hh"

#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/parse.hh"

namespace vcache
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

Error
configError(const std::string &name, std::size_t line_no,
            const std::string &what)
{
    std::ostringstream os;
    if (!name.empty())
        os << "'" << name << "' ";
    os << "config line " << line_no << ": " << what;
    return makeError(Errc::InvalidConfig, os.str());
}

} // namespace

Expected<KeyValueConfig>
KeyValueConfig::tryParse(std::istream &in, const std::string &name)
{
    KeyValueConfig config;
    config.origin = name;
    std::string raw;
    std::string section;
    std::size_t line_no = 0;

    while (std::getline(in, raw)) {
        ++line_no;
        const auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        const std::string line = trim(raw);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            const auto close = line.find(']');
            if (close == std::string::npos)
                return configError(name, line_no,
                                   "malformed section header '" +
                                       line + "'");
            // ']' must end the line: "[sec] junk" and "[sec]extra]"
            // used to be half-accepted, silently mangling the
            // section name.
            if (close != line.size() - 1)
                return configError(name, line_no,
                                   "trailing garbage after section "
                                   "header '" +
                                       line.substr(0, close + 1) +
                                       "'");
            section = trim(line.substr(1, close - 1));
            if (section.empty())
                return configError(name, line_no,
                                   "empty section name");
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return configError(name, line_no,
                               "expected 'key = value', got '" +
                                   line + "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            return configError(name, line_no, "empty key");

        const std::string full =
            section.empty() ? key : section + "." + key;
        const auto existing = config.values.find(full);
        if (existing != config.values.end())
            return configError(
                name, line_no,
                "duplicate key '" + full + "' (first defined at line " +
                    std::to_string(existing->second.line) + ")");
        config.values[full] = Entry{value, line_no};
    }
    if (in.bad())
        return makeError(Errc::Io,
                         name.empty()
                             ? std::string("config stream read error")
                             : "read error in config '" + name + "'");
    return config;
}

Expected<KeyValueConfig>
KeyValueConfig::tryParseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return makeError(Errc::Io,
                         "cannot open config file '" + path + "'");
    return tryParse(in, path);
}

KeyValueConfig
KeyValueConfig::parse(std::istream &in)
{
    auto config = tryParse(in);
    if (!config.ok())
        vc_fatal(config.error().message);
    return std::move(config.value());
}

KeyValueConfig
KeyValueConfig::parseFile(const std::string &path)
{
    auto config = tryParseFile(path);
    if (!config.ok())
        vc_fatal(config.error().message);
    return std::move(config.value());
}

const KeyValueConfig::Entry *
KeyValueConfig::find(const std::string &key) const
{
    const auto it = values.find(key);
    if (it == values.end())
        return nullptr;
    touched.insert(key);
    return &it->second;
}

std::string
KeyValueConfig::describeKey(const std::string &key,
                            const Entry &entry) const
{
    std::ostringstream os;
    os << "config key '" << key << "'";
    if (entry.line) {
        os << " (";
        if (!origin.empty())
            os << origin << " ";
        os << "line " << entry.line << ")";
    }
    return os.str();
}

bool
KeyValueConfig::has(const std::string &key) const
{
    return values.count(key) > 0;
}

std::string
KeyValueConfig::getString(const std::string &key,
                          const std::string &def) const
{
    const auto *v = find(key);
    return v ? v->value : def;
}

Expected<std::uint64_t>
KeyValueConfig::tryGetUint(const std::string &key,
                           std::uint64_t def) const
{
    const auto *v = find(key);
    if (!v)
        return def;
    std::uint64_t parsed = 0;
    if (parseWhole(v->value, parsed) != ParseStatus::Ok)
        return makeError(Errc::InvalidConfig,
                         describeKey(key, *v) + ": '" + v->value +
                             "' is not a non-negative integer");
    return parsed;
}

std::uint64_t
KeyValueConfig::getUint(const std::string &key,
                        std::uint64_t def) const
{
    auto parsed = tryGetUint(key, def);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
    return parsed.value();
}

Expected<double>
KeyValueConfig::tryGetDouble(const std::string &key, double def) const
{
    const auto *v = find(key);
    if (!v)
        return def;
    try {
        std::size_t used = 0;
        const double parsed = std::stod(v->value, &used);
        if (used != v->value.size())
            throw std::invalid_argument("trailing");
        return parsed;
    } catch (...) {
        return makeError(Errc::InvalidConfig,
                         describeKey(key, *v) + ": '" + v->value +
                             "' is not a number");
    }
}

double
KeyValueConfig::getDouble(const std::string &key, double def) const
{
    auto parsed = tryGetDouble(key, def);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
    return parsed.value();
}

Expected<bool>
KeyValueConfig::tryGetBool(const std::string &key, bool def) const
{
    const auto *v = find(key);
    if (!v)
        return def;
    if (v->value == "true" || v->value == "1" || v->value == "yes")
        return true;
    if (v->value == "false" || v->value == "0" || v->value == "no")
        return false;
    return makeError(Errc::InvalidConfig,
                     describeKey(key, *v) + ": '" + v->value +
                         "' is not a boolean");
}

bool
KeyValueConfig::getBool(const std::string &key, bool def) const
{
    auto parsed = tryGetBool(key, def);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
    return parsed.value();
}

std::vector<std::string>
KeyValueConfig::unusedKeys() const
{
    std::vector<std::string> unused;
    for (const auto &[key, entry] : values)
        if (!touched.count(key))
            unused.push_back(key);
    return unused;
}

Expected<void>
KeyValueConfig::rejectUnknown() const
{
    const auto unused = unusedKeys();
    if (unused.empty())
        return {};
    std::ostringstream os;
    os << "unknown config key" << (unused.size() > 1 ? "s" : "");
    for (std::size_t i = 0; i < unused.size(); ++i) {
        os << (i ? ", " : " ") << "'" << unused[i] << "'";
        const auto it = values.find(unused[i]);
        if (it != values.end() && it->second.line)
            os << " (line " << it->second.line << ")";
    }
    return makeError(Errc::InvalidConfig, os.str());
}

std::vector<std::string>
KeyValueConfig::keys() const
{
    std::vector<std::string> out;
    for (const auto &[key, entry] : values)
        out.push_back(key);
    return out;
}

std::size_t
KeyValueConfig::lineOf(const std::string &key) const
{
    const auto it = values.find(key);
    return it == values.end() ? 0 : it->second.line;
}

} // namespace vcache
