#include "util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>

#include "base/jsonl.hh"
#include "base/str.hh"

namespace cwbench
{

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace
{

double
tvSeconds(const struct timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
}

} // anonymous namespace

double
cpuSelf()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return tvSeconds(ru.ru_utime) + tvSeconds(ru.ru_stime);
}

double
cpuChildren()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return tvSeconds(ru.ru_utime) + tvSeconds(ru.ru_stime);
}

double
peakRssMb()
{
    // ru_maxrss of RUSAGE_CHILDREN is the largest of the reaped
    // descendants (grandchildren count once their parent reaped them).
    struct rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

std::vector<size_t>
permutation(size_t n, uint64_t seed, uint64_t round)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + round);
    // Fisher-Yates by hand: std::shuffle's draw sequence is left to
    // the library, and the same seed must give the same order anywhere.
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

std::string
runSignature(const cwsim::harness::RunResult &r)
{
    std::string sig = cwsim::strfmt(
        "ok=%d cycles=%llu commits=%llu loads=%llu viol=%llu "
        "replays=%llu cpi=",
        r.ok ? 1 : 0, static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.commits),
        static_cast<unsigned long long>(r.committedLoads),
        static_cast<unsigned long long>(r.violations),
        static_cast<unsigned long long>(r.replays));
    for (size_t i = 0; i < r.cpiSlots.size(); ++i) {
        sig += cwsim::strfmt(i ? ",%llu" : "%llu",
                             static_cast<unsigned long long>(
                                 r.cpiSlots[i]));
    }
    return sig;
}

std::string
splitSignature(uint64_t cycles, uint64_t commits, uint64_t violations,
               const std::vector<uint64_t> &cpi)
{
    std::string sig = cwsim::strfmt(
        "cycles=%llu commits=%llu viol=%llu cpi=",
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(commits),
        static_cast<unsigned long long>(violations));
    for (size_t i = 0; i < cpi.size(); ++i) {
        sig += cwsim::strfmt(i ? ",%llu" : "%llu",
                             static_cast<unsigned long long>(cpi[i]));
    }
    return sig;
}

Expected::Expected(std::string path, bool recording)
    : path(std::move(path)), recording(recording)
{
}

bool
Expected::load(std::string &err)
{
    if (recording)
        return true;
    std::ifstream in(path);
    if (!in) {
        err = "cannot read expected stats " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::map<std::string, std::string> f;
        if (!cwsim::parseFlatJson(line, f) || !f.count("key") ||
            !f.count("sig")) {
            err = "malformed expected-stats line in " + path;
            return false;
        }
        entries[f["key"]] = f["sig"];
    }
    if (entries.empty()) {
        err = "no expected stats in " + path;
        return false;
    }
    return true;
}

bool
Expected::check(const std::string &key, const std::string &sig)
{
    if (recording) {
        entries[key] = sig;
        return true;
    }
    auto it = entries.find(key);
    if (it != entries.end() && it->second == sig)
        return true;
    if (reported++ < 5) {
        std::fprintf(stderr, "cwbench: stats mismatch for %s\n  want %s\n"
                             "  got  %s\n",
                     key.c_str(),
                     it == entries.end() ? "(no entry)"
                                         : it->second.c_str(),
                     sig.c_str());
    }
    return false;
}

bool
Expected::save(std::string &err) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        err = "cannot write " + path;
        return false;
    }
    for (const auto &[key, sig] : entries) {
        out << cwsim::JsonObject().add("key", key).add("sig", sig).str()
            << '\n';
    }
    return static_cast<bool>(out);
}

} // namespace cwbench
