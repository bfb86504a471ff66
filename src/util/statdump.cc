#include "util/statdump.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace vcache
{

void
StatDump::beginGroup(const std::string &name)
{
    groups.push_back(name);
}

void
StatDump::endGroup()
{
    vc_assert(!groups.empty(), "endGroup without beginGroup");
    groups.pop_back();
}

std::string
StatDump::qualified(const std::string &name) const
{
    std::string full;
    for (const auto &g : groups) {
        full += g;
        full += '.';
    }
    full += name;
    return full;
}

void
StatDump::scalar(const std::string &name, std::uint64_t value,
                 const std::string &description)
{
    entries.push_back({qualified(name), std::to_string(value),
                       description, true, value, 0.0});
}

void
StatDump::scalar(const std::string &name, double value,
                 const std::string &description)
{
    std::ostringstream os;
    os << std::setprecision(6) << value;
    entries.push_back(
        {qualified(name), os.str(), description, false, 0, value});
}

void
StatDump::print(std::ostream &os) const
{
    std::size_t name_w = 0, value_w = 0;
    for (const auto &e : entries) {
        name_w = std::max(name_w, e.name.size());
        value_w = std::max(value_w, e.value.size());
    }
    // Lines are assembled by hand (not stream manipulators) so the
    // caller's ostream formatting state survives, and so a line whose
    // description is empty ends at its value -- no trailing padding.
    for (const auto &e : entries) {
        std::string line = e.name;
        line.append(name_w + 2 - e.name.size(), ' ');
        line.append(value_w - e.value.size(), ' ');
        line += e.value;
        if (!e.description.empty()) {
            line += "  # ";
            line += e.description;
        }
        os << line << "\n";
    }
}

void
StatDump::printJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const auto &e : entries) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "  \"" << json::escape(e.name) << "\": ";
        if (e.isInteger) {
            os << e.intValue;
        } else if (!std::isfinite(e.doubleValue)) {
            os << "null";
        } else {
            std::ostringstream num;
            num << std::setprecision(
                       std::numeric_limits<double>::max_digits10)
                << e.doubleValue;
            os << num.str();
        }
    }
    os << (first ? "}" : "\n}") << "\n";
}

} // namespace vcache
