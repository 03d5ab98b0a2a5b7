#include "base/str.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"

namespace cwsim
{

std::string
strfmt(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> fields;
    size_t start = 0;
    while (true) {
        size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            fields.push_back(s.substr(start));
            break;
        }
        fields.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::string
trim(const std::string &s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1]))) {
        --end;
    }
    return s.substr(begin, end - begin);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
lastLines(const std::string &s, size_t n)
{
    if (n == 0)
        return "";
    std::vector<std::string> kept;
    for (const std::string &line : split(s, '\n')) {
        if (trim(line).empty())
            continue;
        kept.push_back(line);
    }
    size_t begin = kept.size() > n ? kept.size() - n : 0;
    std::string out;
    for (size_t i = begin; i < kept.size(); ++i) {
        if (!out.empty())
            out += '\n';
        out += kept[i];
    }
    return out;
}

bool
parseUnsigned(std::string_view text, uint64_t &out, unsigned base,
              uint64_t max)
{
    // from_chars takes no whitespace, '+' or base prefix, and no '-'
    // for an unsigned type; it reports overflow instead of wrapping.
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] =
        std::from_chars(text.data(), end, v, static_cast<int>(base));
    if (ec != std::errc() || ptr != end || v > max)
        return false;
    out = v;
    return true;
}

bool
parseDouble(std::string_view text, double &out)
{
    // from_chars takes no whitespace, '+' or hex prefix; the checks
    // below reject what else it accepts: "inf", "nan" and overflow.
    double v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
parseSeconds(std::string_view text, double &out)
{
    double v = 0;
    if (!parseDouble(text, v) || std::signbit(v) || v > max_seconds)
        return false;
    out = v;
    return true;
}

uint64_t
envUint64(const char *name, uint64_t min, uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    uint64_t v = 0;
    if (!parseUnsigned(env, v)) {
        warn("ignoring %s=%s (not an unsigned integer); using %llu",
             name, env, static_cast<unsigned long long>(fallback));
        return fallback;
    }
    if (v < min) {
        warn("ignoring %s=%s (must be >= %llu); using %llu", name, env,
             static_cast<unsigned long long>(min),
             static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return v;
}

} // namespace cwsim
