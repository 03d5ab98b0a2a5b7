/**
 * @file
 * The tracing and instrumentation front door: gem5-style named
 * per-component trace flags behind a process-wide TraceManager.
 *
 * Design constraints, in order:
 *
 *  1. ZERO cost when off. Every trace point compiles to a single
 *     predicted-false branch on one global flag (CWSIM_TRACE below);
 *     the message is never formatted and the manager is never touched
 *     unless at least one flag is enabled. Tracing state is global —
 *     deliberately NOT part of SimConfig — so enabling it cannot
 *     change run-cache fingerprints or simulation results.
 *
 *  2. Parallel-sweep safe. Trace output goes to stderr by default
 *     (stdout tables stay byte-identical across --jobs values) and
 *     every line is written under one mutex. The current simulated
 *     cycle and the run label ("workload config") are thread-local, so
 *     concurrent workers tag their own lines correctly.
 *
 *  3. One knob surface. The bench CLI's --trace/--trace-file/
 *     --pipeview/--interval flags and the CWSIM_TRACE*,
 *     CWSIM_PIPEVIEW, CWSIM_INTERVAL* environment variables all land
 *     here; simulators only ever ask the manager.
 *
 * Flag spec syntax: a comma-separated list of flag names
 * ("MDP,Recovery"), or "all". Parsing is case-sensitive and rejects
 * unknown names with the valid set in the error message.
 */

#ifndef CWSIM_OBS_TRACE_HH
#define CWSIM_OBS_TRACE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "base/str.hh" // strfmt, used by the CWSIM_TRACE macro
#include "base/types.hh"

namespace cwsim
{
namespace obs
{

enum class TraceFlag : unsigned
{
    Fetch,    ///< Fetch-engine activity (per fetched instruction).
    Issue,    ///< Issue-phase decisions (loads/stores/ALU ops issuing).
    Commit,   ///< Retirement, one line per committed instruction.
    LSQ,      ///< Store buffer traffic: posts, forwards, stalls.
    MDP,      ///< Dependence-predictor activity: predictions, training.
    Recovery, ///< Violations, replays, slices, squashes.
    Split,    ///< The split-window model (src/split/).
    Sweep,    ///< Sweep-engine host-side events.
    NumFlags
};

constexpr size_t num_trace_flags =
    static_cast<size_t>(TraceFlag::NumFlags);

/** The flag's display/spec name ("MDP", "Recovery", ...). */
const char *traceFlagName(TraceFlag flag);

/** Parse one flag name; false (and @p out untouched) when unknown. */
bool traceFlagFromName(const std::string &name, TraceFlag &out);

class PipeViewWriter;

namespace detail
{
/**
 * The one global the fast path reads: true iff any flag is enabled.
 * Relaxed atomic so trace points stay data-race-free under TSAN while
 * still costing a plain load; configuration happens before the worker
 * pool starts, never mid-sweep.
 */
extern std::atomic<bool> trace_on;
} // namespace detail

/** The macro gate: one predicted-false branch when tracing is off. */
inline bool
tracingActive()
{
    return __builtin_expect(
        detail::trace_on.load(std::memory_order_relaxed), 0);
}

class TraceManager
{
  public:
    /**
     * The process-wide manager. First use applies the CWSIM_TRACE,
     * CWSIM_TRACE_FILE, CWSIM_PIPEVIEW, CWSIM_INTERVAL and
     * CWSIM_INTERVAL_FILE environment variables.
     */
    static TraceManager &instance();

    /**
     * Enable the flags of @p spec ("MDP,Recovery" or "all") on top of
     * whatever is already enabled. On an unknown name returns false,
     * fills @p err with the complaint (valid names included) and
     * changes nothing.
     */
    bool configure(const std::string &spec, std::string *err = nullptr);

    void enable(TraceFlag flag);
    void disableAll();
    bool enabled(TraceFlag flag) const;
    bool anyEnabled() const { return detail::trace_on.load(); }

    /** Redirect trace lines to @p path ("" or "-" = stderr). */
    void setOutputPath(const std::string &path);

    /**
     * Emit one trace line: "<cycle>: <Flag>: [label] <msg>\n",
     * mutex-serialized. Call through the CWSIM_TRACE macro, not
     * directly, so disabled builds pay only the branch.
     */
    void write(TraceFlag flag, const std::string &msg);

    /**
     * Open (truncating) an O3PipeView pipeline-trace file. Returns
     * false and leaves pipeview off when the path is unwritable.
     */
    bool setPipeViewPath(const std::string &path);
    /** The pipeline-trace writer, or nullptr when not recording. */
    PipeViewWriter *pipeView() { return pipeWriter.get(); }

    /** Interval-stats sampling: every @p cycles into @p path. */
    void setInterval(uint64_t cycles, const std::string &path);
    uint64_t intervalPeriod() const { return intervalCycles; }
    const std::string &intervalPath() const { return intervalFile; }

    /**
     * For a forked worker about to close its inherited descriptors:
     * close the trace-file and pipeview streams (their buffers must
     * already be empty) and send trace lines to stderr. Flags and
     * interval sampling stay as they were.
     */
    void dropFileOutputs();

    /**
     * Tests only: drop all flags, close the pipeview/interval outputs
     * and point trace output back at stderr.
     */
    void resetForTesting();

    ~TraceManager();

  private:
    TraceManager();
    TraceManager(const TraceManager &) = delete;
    TraceManager &operator=(const TraceManager &) = delete;

    void applyEnvironment();
    void closeOutput();

    std::array<std::atomic<bool>, num_trace_flags> flags;
    std::mutex writeMutex;
    std::FILE *out;       ///< stderr or an owned file.
    bool ownsOut;
    std::unique_ptr<PipeViewWriter> pipeWriter;
    uint64_t intervalCycles = 0;
    std::string intervalFile;
};

/**
 * The current simulated cycle for this thread's trace lines. The
 * processor refreshes it once per tick — only while tracing is on —
 * so cycle-less components (MdpTable) can still emit timestamped
 * lines.
 */
void setTraceCycle(Tick cycle);
Tick traceCycle();

/**
 * This thread's run label ("workload config"), set by the harness
 * around each timing run so parallel workers' lines are attributable.
 */
void setRunLabel(const std::string &label);
const std::string &runLabel();

} // namespace obs
} // namespace cwsim

/**
 * The trace point: CWSIM_TRACE(MDP, "pair load %llx store %llx", ...).
 * Costs one predicted-false branch when all flags are off; formats and
 * locks only when the named flag is enabled.
 */
#define CWSIM_TRACE(flag, ...)                                          \
    do {                                                                \
        if (::cwsim::obs::tracingActive() &&                            \
            ::cwsim::obs::TraceManager::instance().enabled(             \
                ::cwsim::obs::TraceFlag::flag)) {                       \
            ::cwsim::obs::TraceManager::instance().write(               \
                ::cwsim::obs::TraceFlag::flag,                          \
                ::cwsim::strfmt(__VA_ARGS__));                          \
        }                                                               \
    } while (0)

#endif // CWSIM_OBS_TRACE_HH
