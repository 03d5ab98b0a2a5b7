/**
 * @file
 * Small helpers shared by the benchmark's workloads: statistics over
 * repeated samples, host resource usage, seeded job orders, the
 * simulated-stats signature the correctness gate compares, and the
 * metric list cwbench prints.
 */

#ifndef CWBENCH_UTIL_HH
#define CWBENCH_UTIL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/harness.hh"

namespace cwbench
{

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for caches, sockets and profiles. */
    std::string workDir = ".bench_build/work";
    /** Directory holding <workload>.jsonl expected-stats files. */
    std::string expectedDir = "cwbench/expected";
    /** The fig2 golden --self-check reproduces. */
    std::string golden;
    /** The cwsimd binary daemon-churn launches. */
    std::string cwsimd;
    /** Write the expected-stats file instead of checking it. */
    bool recordExpected = false;
    /** Where the traced run writes its Chrome trace ("" = none). */
    std::string traceOut;
    /** Source identity (git sha or tree hash) from the launcher. */
    std::string sourceId = "unknown";
};

/** Monotonic clock, seconds. */
double nowSec();

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0,1] (0 when empty). */
double quantile(std::vector<double> v, double q);

/** User+system CPU seconds of this process. */
double cpuSelf();

/** User+system CPU seconds of reaped descendants. */
double cpuChildren();

/** Largest max-RSS of this process and its reaped descendants, MB. */
double peakRssMb();

/**
 * A seeded permutation of 0..n-1. The seed and the round index pick
 * the order; nothing else about the inputs changes with the seed.
 */
std::vector<size_t> permutation(size_t n, uint64_t seed, uint64_t round);

/**
 * The simulated fields the correctness gate pins: cycles, commits,
 * committed loads, violations, replays and every CPI-stack slot.
 */
std::string runSignature(const cwsim::harness::RunResult &r);

/** The same signature for a split-window run. */
std::string splitSignature(uint64_t cycles, uint64_t commits,
                           uint64_t violations,
                           const std::vector<uint64_t> &cpi);

/**
 * Expected simulated stats, keyed by run identity. In recording mode
 * check() stores the observed signature; otherwise it compares and
 * reports the first few mismatches on stderr.
 */
class Expected
{
  public:
    Expected(std::string path, bool recording);

    /** Load the file (a no-op when recording). */
    bool load(std::string &err);
    /** True when @p sig matches the stored value for @p key. */
    bool check(const std::string &key, const std::string &sig);
    /** Write every recorded entry (recording mode only). */
    bool save(std::string &err) const;

    size_t size() const { return entries.size(); }

  private:
    std::string path;
    bool recording;
    std::map<std::string, std::string> entries;
    size_t reported = 0;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

using MetricList = std::vector<Metric>;

} // namespace cwbench

#endif // CWBENCH_UTIL_HH
