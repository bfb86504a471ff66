#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "spans.hh"


namespace perfbench
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t n)
{
    return (mix64(mix64(base) ^ n) >> 24) | 1;
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
clockLoopNs()
{
    constexpr int kIterations = 1 << 20;
    std::uint64_t x = 88172645463325252ull;
    const std::int64_t start = threadCpuNs();
    for (int i = 0; i < kIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x * 2862933555777941757ull + 3037000493ull;
    }
    const std::int64_t end = threadCpuNs();
    // Keep the chain: its result is observable.
    volatile std::uint64_t sink = x;
    (void)sink;
    return double(end - start) / kIterations;
}

double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

void
JsonLine::num(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g",
                  std::isfinite(value) ? value : 0.0);
    fields[key] = buf;
}

void
JsonLine::integer(const std::string &key, std::uint64_t value)
{
    fields[key] = std::to_string(value);
}

void
JsonLine::str(const std::string &key, const std::string &value)
{
    std::string quoted = "\"";
    for (const char c : value) {
        if (c == '"' || c == '\\')
            quoted += '\\';
        quoted += (c == '\n' ? ' ' : c);
    }
    fields[key] = quoted + "\"";
}

std::string
JsonLine::render() const
{
    std::string out = "{";
    for (const auto &[key, value] : fields) {
        if (out.size() > 1)
            out += ",";
        out += "\"" + key + "\":" + value;
    }
    return out + "}";
}

} // namespace perfbench
