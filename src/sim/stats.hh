/**
 * @file
 * A small statistics package: named scalar counters, averages and
 * distributions, organized into groups and dumpable as text.
 *
 * Modules own typed stat objects (fast, branch-free increments) and
 * register them with a StatGroup so harness code and tests can query by
 * name and dump everything uniformly.
 */

#ifndef CWSIM_SIM_STATS_HH
#define CWSIM_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "base/logging.hh"

namespace cwsim
{
namespace stats
{

/** A monotonically increasing event counter. */
class Scalar
{
  public:
    Scalar() : count(0) {}

    Scalar &operator++() { ++count; return *this; }
    Scalar &operator+=(uint64_t n) { count += n; return *this; }

    uint64_t value() const { return count; }
    void reset() { count = 0; }

  private:
    uint64_t count;
};

/** Accumulates samples; reports mean / total / count. */
class Average
{
  public:
    Average() : total(0), samples(0) {}

    void
    sample(double v)
    {
        total += v;
        ++samples;
    }

    double mean() const { return samples ? total / samples : 0.0; }
    double sum() const { return total; }
    uint64_t count() const { return samples; }
    void reset() { total = 0; samples = 0; }

  private:
    double total;
    uint64_t samples;
};

/** A fixed-bucket histogram over [min, max) with overflow buckets. */
class Distribution
{
  public:
    Distribution() : lo(0), hi(1), bucketWidth(1) {}

    /**
     * Configure the histogram range.
     * @param min Inclusive lower bound of the tracked range.
     * @param max Exclusive upper bound.
     * @param num_buckets Number of equal-width buckets.
     */
    void init(double min, double max, size_t num_buckets);

    void sample(double v);

    uint64_t bucketCount(size_t i) const { return buckets.at(i); }
    size_t numBuckets() const { return buckets.size(); }
    uint64_t underflows() const { return underflow; }
    uint64_t overflows() const { return overflow; }
    uint64_t count() const { return samples; }
    double mean() const { return samples ? total / samples : 0.0; }
    double sum() const { return total; }
    double minSample() const { return sampleMin; }
    double maxSample() const { return sampleMax; }

    void reset();

  private:
    double lo;
    double hi;
    double bucketWidth;
    std::vector<uint64_t> buckets;
    uint64_t underflow = 0;
    uint64_t overflow = 0;
    uint64_t samples = 0;
    double total = 0;
    double sampleMin = 0;
    double sampleMax = 0;
};

/**
 * A named collection of stats. Groups may nest; fully qualified names
 * join components with '.'.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    void addScalar(const std::string &name, const Scalar *stat,
                   const std::string &desc = "");
    void addAverage(const std::string &name, const Average *stat,
                    const std::string &desc = "");
    void addDistribution(const std::string &name, const Distribution *stat,
                         const std::string &desc = "");

    /** Look up a scalar by name within this group; panics if missing. */
    uint64_t scalarValue(const std::string &name) const;
    /** Look up an average's mean by name; panics if missing. */
    double averageMean(const std::string &name) const;

    bool hasScalar(const std::string &name) const;
    bool hasAverage(const std::string &name) const;
    bool hasDistribution(const std::string &name) const;

    /**
     * Find a stat by fully-qualified name relative to this group —
     * e.g. a root group "proc" resolves "proc.commits" locally and
     * "proc.l1d.hits" through its children. Returns nullptr when no
     * such stat exists (no panic: callers probe).
     */
    const Scalar *findScalar(const std::string &fq) const;
    const Average *findAverage(const std::string &fq) const;
    const Distribution *findDistribution(const std::string &fq) const;

    /** Write "fullName value # desc" lines for all registered stats. */
    void dump(std::ostream &os) const;

    /**
     * Export the whole group tree as ONE flat JSON object keyed by
     * fully-qualified stat names, e.g. {"proc.commits":123,...}.
     * Averages contribute .mean/.count keys; distributions contribute
     * .mean/.count/.min/.max/.underflow/.overflow and one .bucketK per
     * bucket. Flat on purpose: parseFlatJson round-trips it.
     */
    void dumpJson(std::ostream &os) const;
    std::string jsonString() const;

    const std::string &name() const { return groupName; }
    std::string fullName() const;

  private:
    struct NamedScalar { std::string name; const Scalar *stat;
                         std::string desc; };
    struct NamedAverage { std::string name; const Average *stat;
                          std::string desc; };
    struct NamedDist { std::string name; const Distribution *stat;
                       std::string desc; };

    void collectJson(std::vector<std::string> &fields) const;

    std::string groupName;
    StatGroup *parent;
    std::vector<NamedScalar> scalars;
    std::vector<NamedAverage> averages;
    std::vector<NamedDist> dists;
    std::vector<StatGroup *> children;
};

} // namespace stats
} // namespace cwsim

#endif // CWSIM_SIM_STATS_HH
