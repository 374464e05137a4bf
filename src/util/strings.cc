#include "util/strings.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace wlcache {
namespace util {

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return std::string(buf);
}

std::string
fmtExact(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
}

std::string
fmtBytes(std::uint64_t bytes)
{
    static const char *suffixes[] = { "B", "KiB", "MiB", "GiB" };
    int idx = 0;
    std::uint64_t v = bytes;
    while (v >= 1024 && v % 1024 == 0 && idx < 3) {
        v /= 1024;
        ++idx;
    }
    if (v >= 1024 && idx < 3) {
        // Not an exact multiple: fall back to one decimal place.
        double dv = static_cast<double>(v);
        while (dv >= 1024.0 && idx < 3) {
            dv /= 1024.0;
            ++idx;
        }
        return fmtDouble(dv, 1) + suffixes[idx];
    }
    return std::to_string(v) + suffixes[idx];
}

namespace {

std::string
fmtWithPrefix(double value, const char *const *prefixes, int count,
              double step)
{
    double v = std::fabs(value);
    int idx = 0;
    while (idx + 1 < count && v < 1.0 && v > 0.0) {
        v *= step;
        value *= step;
        ++idx;
    }
    return fmtDouble(value, 3) + prefixes[idx];
}

} // anonymous namespace

std::string
fmtEnergy(double joules)
{
    static const char *prefixes[] = { "J", "mJ", "uJ", "nJ", "pJ" };
    return fmtWithPrefix(joules, prefixes, 5, 1000.0);
}

std::string
fmtSeconds(double seconds)
{
    static const char *prefixes[] = { "s", "ms", "us", "ns" };
    return fmtWithPrefix(seconds, prefixes, 4, 1000.0);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, delim))
        out.push_back(item);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
        s.compare(0, prefix.size(), prefix) == 0;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i ? sep : std::string()) + parts[i];
    return out;
}

std::string
toLower(std::string s)
{
    for (auto &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
fnv1a128Hex(const void *data, std::size_t bytes)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    std::uint64_t h0 = 0xcbf29ce484222325ull;
    std::uint64_t h1 = 0x9ae16a3b2f90404full;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h0 = (h0 ^ p[i]) * kPrime;
        h1 = (h1 ^ (p[i] + 0x5bu)) * kPrime;
    }
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(h0),
                  static_cast<unsigned long long>(h1));
    return buf;
}

} // namespace util
} // namespace wlcache
