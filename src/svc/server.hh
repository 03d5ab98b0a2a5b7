/**
 * @file
 * The cwsimd server: one process, one poll(2) loop, many tenants.
 *
 * Architecture — a single-threaded event loop multiplexing four fd
 * classes:
 *
 *   - a self-pipe, written by requestStop() (the SIGTERM handler in
 *     tools/cwsimd.cc), turning signals into poll wakeups
 *   - the listener: a Unix-domain socket
 *   - client sessions: buffered line-delimited JSON (svc/protocol.hh),
 *     non-blocking both ways, with a hard output-backlog cap so one
 *     stalled reader cannot wedge the server
 *   - the IsolatePool's child pipes: every admitted run executes in a
 *     forked worker slot (sweep/isolate.hh), so a crashing, hanging,
 *     or OOMing simulation is classified into the failure taxonomy
 *     and answered like any other result — the daemon itself never
 *     dies of a bad run
 *
 * Shared corpus: all results land in one flock-guarded run cache
 * (sweep/run_cache.hh). A submit is served from three tiers — the
 * cache (completed earlier, by anyone), the scheduler (currently
 * queued/running for another client: the submit subscribes instead of
 * re-running), or a fresh worker slot.
 *
 * Drain semantics: SIGTERM (or a shutdown request) closes the
 * listeners and rejects new submits, but every admitted run finishes
 * and is delivered; then each session gets a final shutdown event and
 * run() returns. Orphaned work (client gone mid-sweep) finishes too —
 * its results belong to the corpus, not the departed client.
 */

#ifndef CWSIM_SVC_SERVER_HH
#define CWSIM_SVC_SERVER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness/harness.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"
#include "svc/scheduler.hh"
#include "svc/spec.hh"
#include "sweep/isolate.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace svc
{

struct ServerOptions
{
    /** Unix-domain socket path (required). */
    std::string socketPath;
    /** Shared run-cache directory. */
    std::string cacheDir = ".cwsim-cache";
    /** Default dynamic-instruction scale for specs that omit one. */
    uint64_t defaultScale = 0; ///< 0 = harness::benchScale().

    /** Worker slots (isolated child processes). */
    unsigned slots = 1;
    double timeoutSec = 0;
    uint64_t memLimitMb = 0;
    unsigned retries = 1;

    SchedulerLimits limits;
    /** Output backlog cap per session before it is dropped. */
    size_t maxOutBuf = 64 * 1024 * 1024;

    /**
     * Periodically dump the metrics registry as Prometheus text
     * exposition to this path (written atomically via rename), for
     * file-based scrapers. Empty = off.
     */
    std::string metricsPath;
    /** Seconds between metrics-file dumps. */
    double metricsPeriodSec = 5;
    /**
     * Emit per-run lifecycle spans as Chrome trace-event JSON to this
     * path (finalized at drain; loadable in Perfetto). Empty = off.
     */
    std::string traceEventsPath;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listeners, open the cache, arm the self-pipe. False
     * with @p err set when a socket cannot be bound.
     */
    bool start(std::string *err);

    /**
     * Serve until a stop request has drained: accept sessions, admit
     * sweeps, execute runs, stream results. Returns the process exit
     * code (0 on clean drain).
     */
    int run();

    /**
     * Begin a graceful drain. Async-signal-safe (one write(2) to the
     * self-pipe) and thread-safe — THE one method another thread or a
     * signal handler may call while run() is live.
     */
    void requestStop();

  private:
    struct SweepProgress
    {
        uint64_t total = 0;
        uint64_t delivered = 0;
        uint64_t failed = 0;   ///< Unexpected failures (campaign).
        uint64_t injected = 0; ///< Armed host-fault deaths.
    };

    struct Session
    {
        uint64_t id = 0;
        int fd = -1;
        std::string inBuf;
        std::string outBuf;
        bool dead = false;
        std::map<std::string, SweepProgress> sweeps;
    };

    /** How a unit actually executed, for telemetry and the
     * queue/execute wallMs split (pool-observed). */
    struct ExecInfo
    {
        unsigned slot = 0;  ///< Worker slot.
        double queueMs = 0; ///< Executor-side queue wait.
        double execMs = 0;  ///< Parent-observed execute time.
    };

    harness::Runner &runnerFor(uint64_t scale);
    void acceptPending(int listenFd);
    void handleLine(Session &s, const std::string &line);
    void handleSubmit(Session &s,
                      const std::map<std::string, std::string> &req);
    void deliverRecord(Session &s, const RunRef &ref,
                       const harness::RunResult &r, uint64_t fp,
                       uint64_t scale);
    void finishUnit(uint64_t key, harness::RunResult r,
                    const std::vector<std::string> &intervalLines,
                    const ExecInfo &info);
    void dispatchReady();
    void send(Session &s, const std::string &line);
    void flushSession(Session &s);
    void reapDeadSessions();
    Session *sessionByClient(uint64_t client);
    void registerMetrics();
    void refreshSnapshotGauges();
    void dumpMetricsFile();
    void emitRunSpans(const RunUnit &unit, const harness::RunResult &r,
                      const ExecInfo &info,
                      const std::vector<RunRef> &refs);

    ServerOptions opts;
    std::unique_ptr<sweep::RunCache> cache;
    Scheduler sched;
    std::unique_ptr<sweep::IsolatePool> pool;
    std::map<uint64_t, std::unique_ptr<harness::Runner>> runners;
    std::map<int, Session> sessions; ///< By fd.
    int unixFd = -1;
    int stopRd = -1;
    int stopWr = -1;
    bool draining = false;
    uint64_t nextClientId = 1;

    // Telemetry: the registry snapshot rides in every stats event and
    // in --metrics-file dumps; spans go to --trace-events.
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::TraceEventWriter> trace;
    std::chrono::steady_clock::time_point startedAt;
    std::chrono::steady_clock::time_point nextMetricsDump;

    /**
     * Hot-path metric handles, registered once in start(), before
     * run() can use any of them.
     */
    struct
    {
        obs::Counter *sessions = nullptr;
        obs::Gauge *sessionsOpen = nullptr;
        obs::Counter *submits = nullptr;
        obs::Counter *submitsAccepted = nullptr;
        obs::Counter *runsAdmitted = nullptr;
        obs::Counter *dedupeHits = nullptr;
        obs::Counter *cacheHits = nullptr;
        obs::Counter *executed = nullptr;
        obs::Counter *backlogDrops = nullptr;
        obs::Counter *protocolErrors = nullptr;
        obs::Histogram *runLatency = nullptr;
        obs::Gauge *cacheSize = nullptr;
        obs::Gauge *uptimeMs = nullptr;
        obs::Counter *depprofRuns = nullptr;
        obs::Counter *depprofEdges = nullptr;
        obs::Gauge *depprofLastEdges = nullptr;
    } sm;
};

} // namespace svc
} // namespace cwsim

#endif // CWSIM_SVC_SERVER_HH
