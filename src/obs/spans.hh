/**
 * @file
 * Run-lifecycle spans as Chrome trace-event JSON.
 *
 * The daemon stamps every run's lifecycle (received → queued →
 * admitted → sent to a worker → streaming → cached → replied) from the
 * scheduler's existing steady_clock points; this writer serializes
 * those stamps in the trace-event format that Perfetto and
 * chrome://tracing load natively, so fleet concurrency — which worker
 * slot ran what, when, and how long each client waited — is visible at
 * a glance.
 *
 * Track layout convention (set by the caller via the meta events):
 * one "process" groups client tracks (tid = client id) and another
 * groups worker-slot tracks (tid = slot index); "X" complete events
 * carry microsecond ts/dur relative to the writer's own epoch, so
 * timestamps are monotonic and non-negative by construction.
 *
 * File shape: a JSON array with exactly one event object per line
 * (after the opening "[" line). That is both valid trace-event JSON
 * and trivially checkable line-by-line in tests without a full JSON
 * parser.
 */

#ifndef CWSIM_OBS_SPANS_HH
#define CWSIM_OBS_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace cwsim
{
namespace obs
{

/** Writes Chrome trace-event JSON ("X" complete spans, "i" instants,
 * "M" metadata) to a file; finish() closes the JSON array. */
class TraceEventWriter
{
  public:
    using Clock = std::chrono::steady_clock;
    using Args = std::vector<std::pair<std::string, std::string>>;

    /** Opens @p path for writing; ok() reports whether that worked. */
    explicit TraceEventWriter(const std::string &path);
    ~TraceEventWriter();

    TraceEventWriter(const TraceEventWriter &) = delete;
    TraceEventWriter &operator=(const TraceEventWriter &) = delete;

    bool ok() const { return f != nullptr; }

    /** Microseconds from the writer's epoch to @p t, clamped at 0. */
    uint64_t tsUs(Clock::time_point t) const;
    /** Microseconds from the writer's epoch to now. */
    uint64_t nowUs() const { return tsUs(Clock::now()); }

    /** A complete ("X") span covering [tsUs, tsUs + durUs]. */
    void complete(const std::string &name, const std::string &cat,
                  uint64_t pid, uint64_t tid, uint64_t tsUs,
                  uint64_t durUs, const Args &args = {});

    /** A thread-scoped instant ("i") event. */
    void instant(const std::string &name, const std::string &cat,
                 uint64_t pid, uint64_t tid, uint64_t tsUs,
                 const Args &args = {});

    /** Name the process track @p pid (an "M" metadata event). */
    void metaProcessName(uint64_t pid, const std::string &name);
    /** Name thread track @p tid within @p pid. */
    void metaThreadName(uint64_t pid, uint64_t tid,
                        const std::string &name);

    /** Close the JSON array and the file; idempotent. */
    void finish();

  private:
    void event(const std::string &body);
    static std::string escape(const std::string &s);
    static std::string argsJson(const Args &args);

    FILE *f = nullptr;
    bool firstEvent = true;
    Clock::time_point epoch;
};

} // namespace obs
} // namespace cwsim

#endif // CWSIM_OBS_SPANS_HH
