/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the simulator's public functions; the simulator itself carries no
 * instrumentation. Each thread appends to its own buffer (no lock on
 * the hot path), and nothing is written until the run ends, when the
 * whole set goes out once as Chrome trace-event JSON. A span's self
 * time is its duration minus the time covered by its child spans.
 *
 * Naming convention: a name with a '.' ("cpu.run") is a layer span and
 * counts as attributed time; a name without one ("job", "round") is a
 * container that only groups its children.
 */

#ifndef CWBENCH_TRACER_HH
#define CWBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cwbench
{

struct SpanRecord
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; ///< Index in the same thread's buffer.
    int64_t runId = -1;
};

/** Per-name totals over a time window. */
struct SpanTotals
{
    uint64_t count = 0;
    double totalS = 0;
    double selfS = 0;
    std::vector<double> durS; ///< Every span's duration.
};

class Tracer
{
  public:
    static Tracer &get();

    void enable(bool on) { enabled = on; }
    bool on() const { return enabled; }

    /** Nanoseconds on the tracer's monotonic clock. */
    static int64_t nowNs();

    /**
     * Totals per span name for spans that started in [t0, t1).
     * Self time subtracts each span's direct children.
     */
    std::map<std::string, SpanTotals> totals(int64_t t0, int64_t t1);

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path,
                     const std::string &metadataJson);

  private:
    friend class Span;

    struct ThreadBuf
    {
        uint32_t tid = 0;
        std::vector<SpanRecord> spans;
        std::vector<int32_t> open; ///< Stack of open span indices.
    };

    ThreadBuf &local();

    bool enabled = false;
    std::mutex mutex; ///< Guards bufs (registration and the final walk).
    std::vector<std::unique_ptr<ThreadBuf>> bufs;
};

/**
 * RAII span. Does nothing when tracing is off. @p runId < 0 inherits
 * the enclosing span's run id. @p name must be a string literal.
 */
class Span
{
  public:
    explicit Span(const char *name, int64_t runId = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer::ThreadBuf *buf = nullptr;
    int32_t index = -1;
};

} // namespace cwbench

#endif // CWBENCH_TRACER_HH
