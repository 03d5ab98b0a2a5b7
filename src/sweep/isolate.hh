/**
 * @file
 * The sandboxed run executor behind the sweep engine's --isolate mode
 * and the cwsimd daemon's worker slots.
 *
 * Each worker slot owns one long-lived worker process, forked when the
 * first job reaches the slot. The parent sends each job down the
 * worker's channel as one flat-JSON job line; the worker rebuilds the
 * config, runs the timing simulation through the ordinary fail-soft
 * Runner, streams back any interval samples and one run-record line
 * (the same wire format the run cache and --json export use), and
 * waits for the next job. The parent manages up to `slots` workers at
 * once, enforcing a wall-clock deadline per job (SIGKILL on expiry)
 * plus RLIMIT_AS / RLIMIT_CPU caps inside the worker, and classifies
 * every job that does not end in a clean record into the
 * harness::FailKind taxonomy:
 *
 *   sim_error  the worker caught a SimError in-process and said so in
 *              its record — byte-identical to a non-isolated failure
 *   crash      the worker was killed by a signal (SIGSEGV, SIGABRT, …)
 *              or exited nonzero mid-job
 *   timeout    the parent's wall-clock deadline fired, or RLIMIT_CPU
 *              delivered SIGXCPU
 *   oom        operator new failed under RLIMIT_AS (the worker's
 *              new-handler exits with a reserved code) or the kernel
 *              OOM killer SIGKILLed it unprompted
 *   protocol   the record did not parse, or the worker refused a job
 *              line that did not rebuild to its fingerprint
 *
 * A worker that ends a job with anything but a clean record is retired
 * and the slot forks a fresh one for its next job, so no failure can
 * leak state into a later run; so is a worker whose address space has
 * grown past half its RLIMIT_AS cap. Host-level failure classes
 * (everything but sim_error) get bounded retries with exponential
 * backoff; a SimError is a deterministic property of the run and is
 * never retried.
 *
 * Two drivers share the machinery:
 *
 *   - runIsolated(): the batch executor the SweepEngine calls — feed
 *     it a pending set, it blocks until every slot-scheduled run has a
 *     final result. Results land in spec-order slots, so a sweep is
 *     bit-identical at any slot count, and the surviving runs of a
 *     fault-storm are bit-identical to a clean serial sweep.
 *
 *   - IsolatePool: the incremental form the cwsimd daemon drives from
 *     its own poll loop. The caller enqueues tasks, merges the pool's
 *     worker channels into its poll set (addPollFds/timeoutMs), and
 *     collects finished runs from service() as they land — the pool
 *     never blocks on a running job, so one event loop can multiplex
 *     client sockets and worker slots.
 */

#ifndef CWSIM_SWEEP_ISOLATE_HH
#define CWSIM_SWEEP_ISOLATE_HH

#include <poll.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "sweep/sweep.hh"

namespace cwsim
{

namespace obs
{
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
} // namespace obs

namespace sweep
{

/**
 * The largest RLIMIT_AS cap, in MiB, whose size in bytes fits a
 * 64-bit rlim_t; every --mem-limit parser rejects more.
 */
constexpr uint64_t max_mem_limit_mb = ~uint64_t{0} >> 20;

/** Milliseconds between two steady-clock points, clamped at 0. */
double elapsedMs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to);

struct IsolateOptions
{
    /** Concurrent worker processes. */
    unsigned slots = 1;
    /** Wall-clock deadline per attempt, seconds (0 = none). */
    double timeoutSec = 0;
    /** RLIMIT_AS cap per worker, MiB (0 = none; at most
     * max_mem_limit_mb). */
    uint64_t memLimitMb = 0;
    /** Extra attempts for host-level (crash/timeout/oom/protocol)
     * failures; SimErrors are deterministic and never retried. */
    unsigned retries = 1;
};

/** How one job ended; defined in isolate.cc. */
struct JobOutcome;

/**
 * A non-blocking pool of isolated worker slots, designed to be one
 * input of a larger poll(2) loop. Lifecycle of a task: enqueue() →
 * pump() sends it to a free slot's worker (forking the worker first if
 * the slot has none) → the caller's poll wakes on its channel →
 * service() drains, classifies, retries host-level failures, and
 * returns it as a Done with a fully-finalized RunResult (names from
 * the spec, failure taxonomy filled, the same strings runIsolated
 * always produced).
 *
 * Single-threaded by design: every method must be called from the one
 * thread that owns the pool (the daemon's event loop / the sweep
 * engine's parent loop).
 */
class IsolatePool
{
  public:
    /** One run to execute in a sandboxed worker. */
    struct Task
    {
        /** Caller's correlation key, echoed back in Done. */
        uint64_t token = 0;
        SweepJob job;
        /** Dynamic-instruction scale: picks the worker's Runner. */
        uint64_t scale = 0;
        /** fingerprintRun(job.workload, scale, job.config); the
         * worker refuses a job whose rebuilt config does not match. */
        uint64_t fp = 0;
        /**
         * When non-zero, the worker samples interval stats every this
         * many cycles and streams the JSONL lines back ahead of its
         * run record (Done::intervalLines). Zero leaves whatever
         * global interval configuration is in effect untouched.
         */
        uint64_t intervalCycles = 0;
    };

    /** A finished task: the final result after any retries. */
    struct Done
    {
        uint64_t token = 0;
        harness::RunResult result;
        /** Interval-sample JSONL lines (Task::intervalCycles > 0). */
        std::vector<std::string> intervalLines;
        /** Attempts consumed (1 = no retries needed). */
        unsigned attempts = 1;
        /** Worker slot the final attempt ran in (0-based). */
        unsigned slot = 0;
        /** Pool queue wait: enqueue() → final attempt's job sent,
         * milliseconds. Also stamped into result.queueMs. */
        double queueMs = 0;
        /** Parent-observed execute time of the final attempt: job
         * sent → record read (or the worker's death seen),
         * milliseconds. */
        double execMs = 0;
    };

    /**
     * @p base, when given, is the Runner whose warm workload and
     * pre-pass caches the workers inherit; a worker builds its own
     * Runner for any other scale. It must outlive the pool.
     */
    explicit IsolatePool(IsolateOptions opts,
                         harness::Runner *base = nullptr);
    /**
     * Ends every worker and reaps it: an idle worker sees its channel
     * close and exits; one still running a job (abandoned work) is
     * SIGKILLed. No worker outlives the pool.
     */
    ~IsolatePool();

    IsolatePool(const IsolatePool &) = delete;
    IsolatePool &operator=(const IsolatePool &) = delete;

    /** Queue a task; it is sent when a slot frees up (see pump()). */
    void enqueue(Task task);

    /** Tasks not yet returned by service(): queued + running. */
    size_t unfinished() const { return queue.size() + running(); }
    bool idle() const { return unfinished() == 0; }
    /** Free slots a caller may fill before pump() would sit on work. */
    unsigned
    freeSlots() const
    {
        size_t busy = unfinished();
        return busy >= slots.size()
            ? 0
            : static_cast<unsigned>(slots.size() - busy);
    }

    /** Send queued tasks to free slots (respecting retry backoff). */
    void pump();

    /**
     * Append one POLLIN pollfd per live worker's channel to @p out;
     * the caller merges them into its poll set so it wakes when a job
     * finishes (or an idle worker dies). Returns the number added.
     */
    size_t addPollFds(std::vector<struct pollfd> &out) const;

    /**
     * Milliseconds until the pool next needs attention regardless of
     * fd readiness (a wall-clock deadline or a retry backoff expiring),
     * or -1 when it can wait forever. Use as an upper bound on the
     * caller's poll timeout.
     */
    int timeoutMs() const;

    /**
     * One non-blocking maintenance pass: drain readable channels,
     * finish jobs whose record arrived, SIGKILL deadline overruns,
     * reap and classify dead workers, requeue retryable failures,
     * send queued work to free slots. Returns every task that reached
     * a final result.
     */
    std::vector<Done> service();

    /**
     * Register the pool's metrics (slot occupancy, worker forks,
     * retries, execute-latency histogram) in @p registry. Optional; a
     * pool without a registry records nothing. Must be called before
     * the first enqueue() and outlive the pool.
     */
    void setMetrics(obs::MetricsRegistry *registry);

  private:
    using Clock = std::chrono::steady_clock;

    struct Attempt
    {
        Task task;
        unsigned attempt = 0; ///< 0-based attempt number.
        /** Earliest send time (retry backoff). */
        Clock::time_point notBefore;
        /** First enqueue() time; survives retries so queueMs measures
         * the task's whole wait, not the last backoff's. */
        Clock::time_point enqueuedAt;
    };

    /** One worker slot: its worker process and the job in flight. */
    struct Slot
    {
        /** The slot's worker; -1 until the next job forks one. */
        pid_t pid = -1;
        int fd = -1;         ///< Parent end of the worker's channel.
        bool eof = false;    ///< The worker closed it (it is exiting).
        bool busy = false;   ///< A job is in flight.
        bool killed = false; ///< We delivered SIGKILL (wall timeout).
        Attempt job;         ///< The job in flight (when busy).
        std::string buf;     ///< Bytes the job has sent back so far.
        Clock::time_point deadline;
        bool hasDeadline = false;
        Clock::time_point sentAt;
    };

    size_t running() const;
    harness::Runner &runnerFor(uint64_t scale);
    bool forkWorker(Slot &slot);
    [[noreturn]] void workerMain(int fd);
    void dispatch(unsigned index, const Attempt &a);
    void runInProcess(unsigned index, const Attempt &a);
    void drainChannels();
    void finishJobs(std::vector<Done> &out);
    void enforceDeadlines();
    void reapDeadWorkers(std::vector<Done> &out);
    void conclude(unsigned index, JobOutcome &outcome,
                  std::vector<Done> &out);
    void retireWorker(Slot &slot, bool kill);
    bool pastRecycleSize(pid_t pid) const;

    IsolateOptions opts;
    harness::Runner *base;
    /** Runners for scales other than base's, built on first use. */
    std::map<uint64_t, std::unique_ptr<harness::Runner>> ownRunners;
    std::deque<Attempt> queue;
    std::vector<Slot> slots;
    /** Results finished synchronously (in-process fallback when
     * socketpair/fork fails), held for the next service() call. */
    std::vector<Done> finished;

    // Optional telemetry handles (null without setMetrics).
    obs::Gauge *busyGauge = nullptr;
    obs::Counter *forksCounter = nullptr;
    obs::Counter *retriesCounter = nullptr;
    obs::Counter *execMsCounter = nullptr;
    obs::Histogram *execHistogram = nullptr;
};

/**
 * Execute jobs[i] for every i in @p pending on a pool of opts.slots
 * workers forked from this process (so they inherit @p runner's warm
 * caches), writing into results[i] (which must be sized to
 * jobs.size()).
 * @p fps holds the per-job fingerprints used on the record wire
 * format. Failed runs come back ok == false with their FailKind set;
 * they are NOT recorded in @p runner — the caller records them so a
 * cold and a cached failure report identically. Blocks until every
 * pending run has a final result.
 */
void runIsolated(harness::Runner &runner,
                 const std::vector<SweepJob> &jobs,
                 const std::vector<size_t> &pending,
                 const std::vector<uint64_t> &fps,
                 const IsolateOptions &opts,
                 std::vector<harness::RunResult> &results);

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_ISOLATE_HH
