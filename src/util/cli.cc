#include "util/cli.hh"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/buildinfo.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace vcache
{

ArgParser::ArgParser(std::string desc) : description(std::move(desc))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &def,
                   const std::string &help)
{
    vc_assert(!flags.count(name), "duplicate flag --", name);
    flags[name] = Flag{def, help, def};
    order.push_back(name);
}

Expected<void>
ArgParser::tryParse(int argc, char **argv)
{
    program = argc > 0 ? argv[0] : "prog";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage();
            std::exit(0);
        }
        if (arg == "--version") {
            // Build identity (git hash, build type, SIMD backend):
            // the line that tells a bug report -- or the memo store --
            // which binary produced a result.
            std::cout << buildInfoString() << "\n";
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            return makeError(Errc::InvalidConfig,
                             "unexpected positional argument '" + arg +
                                 "'");

        std::string name = arg.substr(2);
        std::string value;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else {
            if (i + 1 >= argc)
                return makeError(Errc::InvalidConfig,
                                 "flag --" + name +
                                     " is missing a value");
            value = argv[++i];
        }

        auto it = flags.find(name);
        if (it == flags.end())
            return makeError(Errc::InvalidConfig,
                             "unknown flag --" + name + "\n" +
                                 usage());
        it->second.value = value;
        it->second.explicitlySet = true;
    }
    return {};
}

void
ArgParser::parse(int argc, char **argv)
{
    auto parsed = tryParse(argc, argv);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
}

const ArgParser::Flag &
ArgParser::find(const std::string &name) const
{
    auto it = flags.find(name);
    vc_assert(it != flags.end(), "flag --", name, " was never registered");
    return it->second;
}

bool
ArgParser::wasSet(const std::string &name) const
{
    return find(name).explicitlySet;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return find(name).value;
}

namespace
{

/** parseWhole() with a flag-specific error (see util/parse.hh). */
template <typename T>
Expected<T>
parseFlag(const std::string &flag, const std::string &v,
          const char *kind)
{
    T out{};
    switch (parseWhole(v, out)) {
      case ParseStatus::Ok:
        return out;
      case ParseStatus::OutOfRange:
        return makeError(Errc::InvalidConfig,
                         "flag --" + flag + ": '" + v +
                             "' is out of range for " + kind);
      case ParseStatus::Malformed:
        break;
    }
    return makeError(Errc::InvalidConfig,
                     "flag --" + flag + ": '" + v + "' is not " + kind);
}

} // namespace

Expected<std::int64_t>
ArgParser::tryGetInt(const std::string &name) const
{
    return parseFlag<std::int64_t>(name, find(name).value,
                                    "an integer");
}

Expected<std::uint64_t>
ArgParser::tryGetUint(const std::string &name) const
{
    return parseFlag<std::uint64_t>(name, find(name).value,
                                     "a non-negative integer");
}

Expected<double>
ArgParser::tryGetDouble(const std::string &name) const
{
    return parseFlag<double>(name, find(name).value, "a number");
}

Expected<bool>
ArgParser::tryGetBool(const std::string &name) const
{
    const auto &v = find(name).value;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    return makeError(Errc::InvalidConfig, "flag --" + name + ": '" +
                                              v +
                                              "' is not a boolean");
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    auto parsed = tryGetInt(name);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
    return parsed.value();
}

std::uint64_t
ArgParser::getUint(const std::string &name) const
{
    auto parsed = tryGetUint(name);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
    return parsed.value();
}

double
ArgParser::getDouble(const std::string &name) const
{
    auto parsed = tryGetDouble(name);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
    return parsed.value();
}

bool
ArgParser::getBool(const std::string &name) const
{
    auto parsed = tryGetBool(name);
    if (!parsed.ok())
        vc_fatal(parsed.error().message);
    return parsed.value();
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << description << "\n\nusage: " << program << " [flags]\n"
       << "(--version prints the build identity: git hash, build "
          "type, SIMD backend)\n\n";
    for (const auto &name : order) {
        const auto &f = flags.at(name);
        os << "  --" << name << " (default: " << f.def << ")\n      "
           << f.help << "\n";
    }
    return os.str();
}

} // namespace vcache
