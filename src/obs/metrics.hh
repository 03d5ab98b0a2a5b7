/**
 * @file
 * Host-side metrics registry for the serving stack: monotonic
 * counters, gauges, and fixed-bucket latency histograms with quantile
 * estimates, exported as Prometheus-compatible text exposition and as
 * one flat JSON object (the dialect parseFlatJson in base/jsonl.hh
 * reads, so a registry snapshot can ride inside a cwsimd stats event).
 *
 * This measures the SERVICE, not the simulation: where wall-clock time
 * goes across the queue → dispatch → run → cache pipeline (queue depth and
 * wait, worker-slot utilization, per-fail_kind outcomes, cache hit
 * ratio, end-to-end run latency). Simulated stats stay in
 * sim/stats.hh; nothing here may influence a RunResult.
 *
 * Lock-cheap by construction: registration takes a mutex (cold, at
 * startup), but every hot-path update — Counter::inc, Gauge::set,
 * Histogram::observe — is a handful of relaxed atomic operations on
 * stable storage (entries are never moved once registered), so
 * instrumenting the daemon's event loop or the isolate pool's reap
 * path costs nanoseconds and never blocks.
 *
 * Metric naming follows Prometheus conventions: snake_case, counters
 * end in _total, histograms are exposed as <name>_bucket{le="..."} /
 * <name>_sum / <name>_count. A metric may carry ONE label pair (e.g.
 * fail-kind outcome counters: cwsimd_run_results_total{kind="crash"});
 * in the flat-JSON export a labeled metric flattens to
 * <name>_<labelValue> ("cwsimd_run_results_total_crash"), and a
 * histogram adds derived <name>_p50/_p90/_p99 quantile estimates.
 */

#ifndef CWSIM_OBS_METRICS_HH
#define CWSIM_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cwsim
{
namespace obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v{0};
};

/** A value that goes up and down (queue depth, busy slots, uptime). */
class Gauge
{
  public:
    void
    set(double x)
    {
        v.store(x, std::memory_order_relaxed);
    }

    void
    add(double dx)
    {
        // CAS loop instead of fetch_add: atomic<double>::fetch_add is
        // C++20 but not universally lock-free; this always is cheap.
        double cur = v.load(std::memory_order_relaxed);
        while (!v.compare_exchange_weak(cur, cur + dx,
                                        std::memory_order_relaxed)) {
        }
    }

    double value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v{0};
};

/**
 * Fixed-bucket histogram: cumulative-style export (Prometheus le
 * buckets), linear-interpolation quantile estimates. Bucket bounds are
 * upper edges in ascending order; an implicit +Inf overflow bucket
 * catches everything beyond the last bound.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> upperBounds);

    void observe(double x);

    uint64_t count() const;
    double sum() const { return total.load(std::memory_order_relaxed); }
    size_t bucketCount() const { return buckets.size(); }
    const std::vector<double> &bounds() const { return upper; }
    /** Samples in bucket @p i (the last index is the +Inf bucket). */
    uint64_t
    bucketValue(size_t i) const
    {
        return buckets[i].load(std::memory_order_relaxed);
    }

    /**
     * Estimated @p q quantile (0 < q <= 1) by linear interpolation
     * inside the covering bucket. NaN when empty. Samples landing in
     * the +Inf overflow bucket clamp to the highest finite bound — an
     * estimate can only be as good as the bucket layout.
     */
    double quantile(double q) const;

    /** The default latency layout: 1 ms .. 120 s, roughly log-spaced. */
    static std::vector<double> latencySeconds();

  private:
    std::vector<double> upper; ///< Ascending finite upper bounds.
    /** One per bound plus the +Inf overflow bucket. */
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<double> total{0};
};

/**
 * The registry: named metrics in stable registration order.
 * Registration is idempotent — asking for the same (name, label) again
 * returns the existing metric, so components can re-register handles
 * without coordination. Returned references stay valid for the
 * registry's lifetime (entries are heap-allocated and never moved).
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name, const std::string &help);
    /** A labeled counter series, e.g. ("...", "kind", "crash"). */
    Counter &counter(const std::string &name, const std::string &help,
                     const std::string &labelKey,
                     const std::string &labelValue);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         std::vector<double> upperBounds);

    /**
     * Prometheus text exposition (version 0.0.4): # HELP and # TYPE
     * once per metric name, then one sample line per series; histogram
     * series expand to _bucket{le=...}/_sum/_count. Ends with a
     * newline, as scrapers require.
     */
    std::string prometheusText() const;

    /**
     * One flat JSON object with every metric: counters and gauges as
     * numbers, histograms as _count/_sum plus _p50/_p90/_p99 quantile
     * estimates (quantiles of an empty histogram export as "nan", the
     * JsonObject convention). Parseable by parseFlatJson.
     */
    std::string flatJson() const;

  private:
    enum class Kind { CounterKind, GaugeKind, HistogramKind };

    struct Entry
    {
        std::string name;
        std::string help;
        std::string labelKey;   ///< Empty = unlabeled.
        std::string labelValue;
        Kind kind = Kind::CounterKind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry *find(const std::string &name, const std::string &labelValue);

    mutable std::mutex mutex; ///< Guards the entry list, not updates.
    std::vector<std::unique_ptr<Entry>> entries;
};

} // namespace obs
} // namespace cwsim

#endif // CWSIM_OBS_METRICS_HH
