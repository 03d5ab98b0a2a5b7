#include "sweep/isolate.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <thread>

#include "base/jsonl.hh"
#include "base/logging.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/config_parse.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace sweep
{

struct JobOutcome
{
    harness::FailKind kind = harness::FailKind::None;
    std::string detail;
    /** Valid only when kind is None or SimError. */
    harness::RunResult parsed;
    std::vector<std::string> intervalLines;
};

namespace
{

using Clock = std::chrono::steady_clock;
using harness::FailKind;
using harness::RunResult;

// Reserved worker exit codes. Anything else nonzero is a crash.
constexpr int exit_oom = 33;      ///< operator new failed (RLIMIT_AS).
constexpr int exit_uncaught = 34; ///< non-SimError exception escaped.
/** The job line did not rebuild to the fingerprint it was sent with. */
constexpr int exit_refused = 35;

/**
 * Worker-side prefix marking an interval-sample line on the channel,
 * so the parent can split samples from the run record that ends the
 * job without guessing.
 */
constexpr const char *interval_prefix = "#interval ";

/** Every worker keeps its channel on this descriptor. */
constexpr int worker_channel_fd = 3;

/** A worker whose address space passes 1/this of the RLIMIT_AS cap
 * after a job is retired instead of reused. */
constexpr uint64_t recycle_divisor = 2;

/** The retry backoff (100 ms) doubles at most this many times, so no
 * retry count can overflow it. */
constexpr unsigned max_backoff_doublings = 10;

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS:  return "SIGBUS";
      case SIGILL:  return "SIGILL";
      case SIGFPE:  return "SIGFPE";
      case SIGKILL: return "SIGKILL";
      case SIGTERM: return "SIGTERM";
      case SIGXCPU: return "SIGXCPU";
      default: return nullptr;
    }
}

/** Write all of @p data to a channel; false once the peer is gone. */
bool
sendFully(int fd, const std::string &data)
{
    const char *p = data.data();
    size_t len = data.size();
    while (len > 0) {
        // MSG_NOSIGNAL: a dead peer costs an EPIPE, not a SIGPIPE.
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

/**
 * The config on the job line: the lines of serializeConfig(@p cfg)
 * that differ from the default machine's. The worker applies them to
 * SimConfig{} with parseConfigText().
 */
std::string
configDelta(const SimConfig &cfg)
{
    static const std::vector<std::string> defaults =
        split(serializeConfig(SimConfig{}), '\n');
    const std::vector<std::string> lines = split(serializeConfig(cfg), '\n');
    std::string out;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (i >= defaults.size() || lines[i] != defaults[i])
            out += lines[i] + '\n';
    }
    return out;
}

std::string
jobLine(const IsolatePool::Task &task)
{
    JsonObject o;
    o.add("workload", task.job.workload)
        .add("scale", task.scale)
        .add("fp", strfmt("%016llx",
                          static_cast<unsigned long long>(task.fp)))
        .add("interval", task.intervalCycles)
        .add("config", configDelta(task.job.config));
    return o.str() + "\n";
}

/** A job as the worker rebuilt it from its line. */
struct WorkerJob
{
    std::string workload;
    uint64_t scale = 0;
    uint64_t fp = 0;
    uint64_t intervalCycles = 0;
    SimConfig config;
};

/**
 * Rebuild a job from its line. False when the line does not parse or
 * its config does not rebuild to the fingerprint it was sent with: a
 * config field the parser cannot carry must fail loudly, not run a
 * different machine.
 */
bool
parseJobLine(const std::string &line, WorkerJob &job)
{
    std::map<std::string, std::string> f;
    if (!parseFlatJson(line, f))
        return false;
    job.workload = f["workload"];
    if (job.workload.empty() || !parseUnsigned(f["scale"], job.scale) ||
        !parseUnsigned(f["fp"], job.fp, 16) ||
        !parseUnsigned(f["interval"], job.intervalCycles)) {
        return false;
    }
    try {
        ScopedErrorTrap trap;
        job.config = parseConfigText(f["config"]);
    } catch (const SimError &) {
        return false;
    }
    return fingerprintRun(job.workload, job.scale, job.config) == job.fp;
}

/** Worker side: the next job line; false once the channel closes. */
bool
readJobLine(int fd, std::string &pending, std::string &line)
{
    for (;;) {
        size_t nl = pending.find('\n');
        if (nl != std::string::npos) {
            line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        pending.append(chunk, static_cast<size_t>(n));
    }
}

/**
 * Worker side: move the channel to worker_channel_fd and close every
 * other inherited descriptor but 0/1/2. A plain fork ignores
 * O_CLOEXEC, so without this a worker would hold other workers'
 * channels (their EOF would never arrive) and client sockets the
 * daemon dropped (those clients would never see EOF).
 */
int
keepOnlyChannel(int fd)
{
    if (fd != worker_channel_fd) {
        ::dup2(fd, worker_channel_fd);
        ::close(fd);
    }
    // A worker that cannot let go of them must not run jobs.
    if (::close_range(worker_channel_fd + 1, ~0U, 0) != 0)
        _exit(exit_uncaught);
    return worker_channel_fd;
}

/**
 * Worker side: a stop handler inherited from the parent (cwsimd's
 * writes to the daemon's self-pipe, closed here) becomes SIG_IGN, so a
 * terminal's Ctrl-C drains the daemon while its workers finish their
 * jobs. Default dispositions stay: a bench's workers die with it.
 */
void
ignoreInheritedStopHandlers()
{
    for (int sig : {SIGTERM, SIGINT, SIGHUP}) {
        struct sigaction sa{};
        if (::sigaction(sig, nullptr, &sa) != 0)
            continue;
        if ((sa.sa_flags & SA_SIGINFO) ||
            (sa.sa_handler != SIG_DFL && sa.sa_handler != SIG_IGN)) {
            ::signal(sig, SIG_IGN);
        }
    }
}

/**
 * Worker side, before each job: RLIMIT_CPU's soft limit becomes the
 * CPU used so far plus the job's budget, so a spinning job still gets
 * SIGXCPU if the parent's deadline never fires. The hard limit stays
 * as inherited: at soft == hard the kernel sends SIGKILL instead.
 */
void
armCpuBudget(double timeoutSec)
{
    struct rusage ru{};
    struct rlimit rl{};
    if (::getrusage(RUSAGE_SELF, &ru) != 0 ||
        ::getrlimit(RLIMIT_CPU, &rl) != 0) {
        return;
    }
    // Whole seconds, rounded up: the unit RLIMIT_CPU counts in.
    rlim_t used = static_cast<rlim_t>(ru.ru_utime.tv_sec) +
                  static_cast<rlim_t>(ru.ru_stime.tv_sec) + 1;
    rlim_t budget = static_cast<rlim_t>(std::ceil(timeoutSec)) + 10;
    rl.rlim_cur = used + budget;
    if (rl.rlim_max != RLIM_INFINITY)
        rl.rlim_cur = std::min(rl.rlim_cur, rl.rlim_max);
    ::setrlimit(RLIMIT_CPU, &rl);
}

/**
 * Has a job's run record arrived? It is the last line the worker
 * sends for the job, after any interval samples.
 */
bool
recordArrived(const std::string &buf)
{
    if (buf.empty() || buf.back() != '\n')
        return false;
    size_t last = buf.rfind('\n', buf.size() - 2);
    last = last == std::string::npos ? 0 : last + 1;
    return buf.compare(last, std::strlen(interval_prefix),
                       interval_prefix) != 0;
}

/** Classify a job from everything its worker sent for it. */
JobOutcome
classifyRecord(const std::string &output)
{
    JobOutcome out;
    const std::string prefix = interval_prefix;
    std::string record;
    for (const std::string &line : split(output, '\n')) {
        if (line.empty())
            continue;
        if (startsWith(line, prefix))
            out.intervalLines.push_back(line.substr(prefix.size()));
        else
            record = line;
    }
    std::map<std::string, std::string> fields;
    if (parseFlatJson(record, fields) &&
        runRecordParse(fields, out.parsed)) {
        out.kind = out.parsed.ok ? FailKind::None : FailKind::SimError;
        return out;
    }
    out.kind = FailKind::Protocol;
    out.detail = "unparseable record";
    return out;
}

/** Classify a job whose worker died before its record arrived. */
JobOutcome
classifyDeath(bool killed, int status, const IsolateOptions &opts)
{
    JobOutcome out;
    if (WIFEXITED(status)) {
        int code = WEXITSTATUS(status);
        if (code == exit_oom) {
            out.kind = FailKind::Oom;
            out.detail = opts.memLimitMb > 0
                ? strfmt("alloc failed under %llu MiB",
                         static_cast<unsigned long long>(
                             opts.memLimitMb))
                : "alloc failed";
            return out;
        }
        if (code == 0 || code == exit_refused) {
            out.kind = FailKind::Protocol;
            out.detail = code == 0 ? "exited without a record"
                                   : "job line refused";
            return out;
        }
        out.kind = FailKind::Crash;
        out.detail = strfmt("exit=%d", code);
        return out;
    }
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        if (killed) {
            out.kind = FailKind::Timeout;
            out.detail = strfmt("wall-clock %.1fs", opts.timeoutSec);
            return out;
        }
        if (sig == SIGXCPU) {
            out.kind = FailKind::Timeout;
            out.detail = "rlimit-cpu";
            return out;
        }
        if (sig == SIGKILL) {
            // Not ours, so the kernel's (the OOM killer is the usual
            // sender of unsolicited SIGKILLs).
            out.kind = FailKind::Oom;
            out.detail = "SIGKILL (host oom killer?)";
            return out;
        }
        out.kind = FailKind::Crash;
        const char *name = signalName(sig);
        out.detail = name ? name : strfmt("signal %d", sig);
        return out;
    }
    out.kind = FailKind::Protocol;
    out.detail = strfmt("wait status 0x%x", status);
    return out;
}

bool
retryable(FailKind kind)
{
    // Host-level failures may be environmental (a loaded machine, a
    // flaky OOM); a SimError is a deterministic property of the run.
    return kind == FailKind::Crash || kind == FailKind::Timeout ||
           kind == FailKind::Oom || kind == FailKind::Protocol;
}

/** The final RunResult for a task, names and taxonomy filled. */
RunResult
finalizeResult(const IsolatePool::Task &task, const JobOutcome &cls,
               unsigned attempts)
{
    if (cls.kind == FailKind::None || cls.kind == FailKind::SimError) {
        RunResult r = cls.parsed;
        // Names travel with the record, but trust the spec's (the
        // same rule cache hits follow).
        r.workload = task.job.workload;
        r.config = task.job.config.name();
        return r;
    }
    RunResult r;
    r.workload = task.job.workload;
    r.config = task.job.config.name();
    r.ok = false;
    r.failKind = cls.kind;
    r.failDetail = cls.detail;
    r.injectedHostFault = task.job.config.check.faults.hostAny();
    r.error = strfmt("isolated run died: %s after %u attempt(s)",
                     r.failLabel().c_str(), attempts);
    return r;
}

/** Block until @p pid is reaped; its wait status. */
int
waitFor(pid_t pid)
{
    int status = 0;
    pid_t w;
    do {
        w = ::waitpid(pid, &status, 0);
    } while (w < 0 && errno == EINTR);
    return status;
}

} // anonymous namespace

double
elapsedMs(Clock::time_point from, Clock::time_point to)
{
    if (to <= from)
        return 0;
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(to - from)
        .count();
}

IsolatePool::IsolatePool(IsolateOptions opts, harness::Runner *base)
    : opts(opts), base(base), slots(std::max(1u, opts.slots))
{
}

void
IsolatePool::setMetrics(obs::MetricsRegistry *registry)
{
    if (!registry)
        return;
    registry
        ->gauge("cwsim_pool_slots",
                "Configured worker slots (concurrent worker processes).")
        .set(static_cast<double>(slots.size()));
    busyGauge = &registry->gauge(
        "cwsim_pool_busy", "Worker slots currently running a job.");
    forksCounter = &registry->counter(
        "cwsim_pool_forks_total",
        "Worker processes forked (first job of a slot, or a "
        "replacement for a retired worker).");
    retriesCounter = &registry->counter(
        "cwsim_pool_retries_total",
        "Host-level failures requeued for another attempt.");
    execMsCounter = &registry->counter(
        "cwsim_pool_exec_ms_total",
        "Total milliseconds worker slots spent running jobs; divide by "
        "uptime times slots for utilization.");
    execHistogram = &registry->histogram(
        "cwsim_pool_exec_seconds",
        "Per-attempt execute time, job sent to record read, seconds.",
        obs::Histogram::latencySeconds());
}

IsolatePool::~IsolatePool()
{
    // Close every channel first so idle workers exit in parallel (EOF
    // on their next read); a job still running is abandoned work and
    // dies now. Then reap them all: no worker outlives its pool, and
    // their CPU time and peak RSS reach whoever waits on this process.
    for (Slot &s : slots) {
        if (s.pid < 0)
            continue;
        if (s.busy)
            ::kill(s.pid, SIGKILL);
        ::close(s.fd);
    }
    for (Slot &s : slots) {
        if (s.pid >= 0)
            waitFor(s.pid);
    }
}

size_t
IsolatePool::running() const
{
    return static_cast<size_t>(
        std::count_if(slots.begin(), slots.end(),
                      [](const Slot &s) { return s.busy; }));
}

void
IsolatePool::enqueue(Task task)
{
    Clock::time_point now = Clock::now();
    queue.push_back({std::move(task), 0, now, now});
}

harness::Runner &
IsolatePool::runnerFor(uint64_t scale)
{
    if (base && base->scale() == scale)
        return *base;
    std::unique_ptr<harness::Runner> &r = ownRunners[scale];
    if (!r)
        r = std::make_unique<harness::Runner>(scale);
    return *r;
}

void
IsolatePool::workerMain(int fd)
{
    // The trace-file and pipeview streams go first, while their
    // descriptors are still this worker's copies: once closed, a later
    // open() could reuse the numbers under them.
    obs::TraceManager::instance().dropFileOutputs();
    fd = keepOnlyChannel(fd);
    ignoreInheritedStopHandlers();
    // Allocation failure (RLIMIT_AS, alloc storms) exits with the
    // reserved OOM code instead of an unclassifiable abort. The
    // handler must not allocate.
    std::set_new_handler([] { _exit(exit_oom); });
    if (opts.memLimitMb > 0) {
        rlim_t bytes = static_cast<rlim_t>(
                           std::min(opts.memLimitMb, max_mem_limit_mb))
                       << 20;
        struct rlimit rl = {bytes, bytes};
        ::setrlimit(RLIMIT_AS, &rl);
    }

    obs::TraceManager &tm = obs::TraceManager::instance();
    const uint64_t inheritedPeriod = tm.intervalPeriod();
    const std::string inheritedPath = tm.intervalPath();
    std::string pending, line;
    for (uint64_t n = 0; readJobLine(fd, pending, line); ++n) {
        WorkerJob job;
        if (!parseJobLine(line, job)) {
            warn("isolate: worker %d refused a job line that does not "
                 "rebuild to its fingerprint: %s",
                 static_cast<int>(::getpid()), line.c_str());
            _exit(exit_refused);
        }
        if (opts.timeoutSec > 0)
            armCpuBudget(opts.timeoutSec);

        // Interval sampling is process-global: point it at a file of
        // this job's own, stream the lines back (prefixed) once the
        // run's sampler has closed it, then restore the inherited
        // setting for the next job.
        std::string intervalPath;
        if (job.intervalCycles > 0) {
            intervalPath = strfmt(
                "%s/cwsim-iv-%d-%llu.jsonl", P_tmpdir,
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(n));
            tm.setInterval(job.intervalCycles, intervalPath);
        }

        RunResult r;
        try {
            harness::Runner &runner = runnerFor(job.scale);
            // Warm the workload and its pre-pass first, so wall_ms
            // times the run alone. Fail-soft: a broken workload fails
            // the same way inside run() and says so in its record.
            try {
                ScopedErrorTrap trap;
                runner.prepass(job.workload);
            } catch (const SimError &) {
            }
            // SimErrors are caught inside run() (fail-soft) and travel
            // in the record; only host-level surprises reach the
            // catches.
            r = runner.run(job.workload, job.config);
        } catch (const std::bad_alloc &) {
            _exit(exit_oom);
        } catch (...) {
            _exit(exit_uncaught);
        }

        std::string reply;
        if (!intervalPath.empty()) {
            std::ifstream in(intervalPath);
            std::string sample;
            while (in && std::getline(in, sample)) {
                if (!sample.empty())
                    reply += interval_prefix + sample + "\n";
            }
            ::unlink(intervalPath.c_str());
            tm.setInterval(inheritedPeriod, inheritedPath);
        }
        reply += runRecordLine(r, job.fp, job.scale);
        reply += '\n';
        if (!sendFully(fd, reply))
            _exit(exit_uncaught);
    }
    // The parent closed the channel: no more jobs. Like any forked
    // child, never run exit handlers or flush inherited stdio.
    _exit(0);
}

bool
IsolatePool::forkWorker(Slot &slot)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) < 0) {
        warn("isolate: socketpair failed (%s)", std::strerror(errno));
        return false;
    }
    // The worker never flushes stdio, so empty every output buffer
    // now: bytes left in one would otherwise exist in both processes.
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        warn("isolate: fork failed (%s)", std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        ::close(sv[0]);
        workerMain(sv[1]);
    }
    ::close(sv[1]);
    int flags = ::fcntl(sv[0], F_GETFL, 0);
    ::fcntl(sv[0], F_SETFL, flags | O_NONBLOCK);
    slot.pid = pid;
    slot.fd = sv[0];
    slot.eof = false;
    if (forksCounter)
        forksCounter->inc();
    return true;
}

void
IsolatePool::runInProcess(unsigned index, const Attempt &a)
{
    const Task &task = a.task;
    warn("isolate: running %s in-process", task.job.workload.c_str());
    Done d;
    d.token = task.token;
    d.slot = index;
    d.queueMs = elapsedMs(a.enqueuedAt, Clock::now());
    Clock::time_point t0 = Clock::now();
    d.result = runnerFor(task.scale).run(task.job.workload,
                                         task.job.config);
    d.execMs = elapsedMs(t0, Clock::now());
    d.result.queueMs = d.queueMs;
    d.attempts = a.attempt + 1;
    if (execHistogram)
        execHistogram->observe(d.execMs / 1000.0);
    if (execMsCounter)
        execMsCounter->inc(static_cast<uint64_t>(d.execMs));
    finished.push_back(std::move(d));
}

void
IsolatePool::dispatch(unsigned index, const Attempt &a)
{
    Slot &s = slots[index];
    if (s.pid < 0 && !forkWorker(s)) {
        runInProcess(index, a);
        return;
    }
    s.busy = true;
    s.killed = false;
    s.job = a;
    s.buf.clear();
    s.sentAt = Clock::now();
    s.hasDeadline = opts.timeoutSec > 0;
    if (s.hasDeadline) {
        s.deadline = s.sentAt +
                     std::chrono::microseconds(static_cast<int64_t>(
                         opts.timeoutSec * 1e6));
    }
    if (!sendFully(s.fd, jobLine(a.task))) {
        // The worker died since its last job; its exit status settles
        // this attempt once the channel reports EOF. Make sure a
        // worker that is somehow alive but not reading does not hold
        // the job forever.
        ::kill(s.pid, SIGKILL);
    }
    if (busyGauge)
        busyGauge->set(static_cast<double>(running()));
}

void
IsolatePool::pump()
{
    // This overload exists for callers that want dispatch decoupled
    // from result collection; service() pumps too.
    Clock::time_point now = Clock::now();
    for (auto it = queue.begin(); it != queue.end();) {
        // Lowest free slot first, so trace tracks are stable and a
        // light load keeps reusing the same worker.
        auto free = std::find_if(slots.begin(), slots.end(),
                                 [](const Slot &s) { return !s.busy; });
        if (free == slots.end())
            break;
        if (it->notBefore > now) {
            ++it;
            continue;
        }
        Attempt a = std::move(*it);
        it = queue.erase(it);
        dispatch(static_cast<unsigned>(free - slots.begin()), a);
    }
}

size_t
IsolatePool::addPollFds(std::vector<struct pollfd> &out) const
{
    // Idle workers too: one that dies between jobs is reaped at once.
    size_t added = 0;
    for (const Slot &s : slots) {
        if (s.pid >= 0 && !s.eof) {
            out.push_back({s.fd, POLLIN, 0});
            ++added;
        }
    }
    return added;
}

int
IsolatePool::timeoutMs() const
{
    Clock::time_point now = Clock::now();
    int64_t best = -1;
    auto consider = [&](Clock::time_point t) {
        int64_t ms = std::chrono::duration_cast<
                         std::chrono::milliseconds>(t - now)
                         .count();
        ms = std::max<int64_t>(0, ms) + 1;
        best = best < 0 ? ms : std::min(best, ms);
    };
    for (const Slot &s : slots) {
        if (s.busy && s.hasDeadline && !s.killed)
            consider(s.deadline);
    }
    if (running() < slots.size()) {
        for (const Attempt &a : queue)
            consider(a.notBefore);
    }
    return best > std::numeric_limits<int>::max()
        ? std::numeric_limits<int>::max()
        : static_cast<int>(best);
}

void
IsolatePool::drainChannels()
{
    for (Slot &s : slots) {
        if (s.pid < 0 || s.eof)
            continue;
        char chunk[16384];
        for (;;) {
            ssize_t n = ::read(s.fd, chunk, sizeof(chunk));
            if (n > 0) {
                s.buf.append(chunk, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            s.eof = true; // 0 (EOF) or a hard error: the worker is gone
            break;
        }
    }
}

bool
IsolatePool::pastRecycleSize(pid_t pid) const
{
    // statm's first field is the address-space size in pages: what
    // RLIMIT_AS caps. The worker is idle now, so it cannot change.
    std::ifstream in(strfmt("/proc/%d/statm", static_cast<int>(pid)));
    uint64_t pages = 0;
    if (!(in >> pages))
        return false;
    uint64_t bytes = pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    return bytes > (opts.memLimitMb << 20) / recycle_divisor;
}

void
IsolatePool::retireWorker(Slot &s, bool kill)
{
    // A closed channel is an idle worker's cue to exit; a worker that
    // failed a job may not be reading it, so that one is killed.
    if (kill && !s.eof)
        ::kill(s.pid, SIGKILL);
    ::close(s.fd);
    waitFor(s.pid);
    s.pid = -1;
    s.fd = -1;
    s.eof = false;
}

void
IsolatePool::conclude(unsigned index, JobOutcome &cls,
                      std::vector<Done> &out)
{
    Slot &s = slots[index];
    Attempt &a = s.job;
    s.busy = false;
    double execMs = elapsedMs(s.sentAt, Clock::now());
    if (busyGauge)
        busyGauge->set(static_cast<double>(running()));
    if (execHistogram)
        execHistogram->observe(execMs / 1000.0);
    if (execMsCounter)
        execMsCounter->inc(static_cast<uint64_t>(execMs));

    if (retryable(cls.kind) && a.attempt < opts.retries) {
        warn("isolate: %s under %s died (%s, attempt %u/%u); retrying",
             a.task.job.workload.c_str(),
             a.task.job.config.name().c_str(), cls.detail.c_str(),
             a.attempt + 1, opts.retries + 1);
        if (retriesCounter)
            retriesCounter->inc();
        // Exponential backoff so a thrashing host gets air.
        auto backoff = std::chrono::milliseconds(100) *
                       (1u << std::min(a.attempt, max_backoff_doublings));
        queue.push_back({std::move(a.task), a.attempt + 1,
                         Clock::now() + backoff, a.enqueuedAt});
        return;
    }
    Done d;
    d.token = a.task.token;
    d.result = finalizeResult(a.task, cls, a.attempt + 1);
    d.intervalLines = std::move(cls.intervalLines);
    d.attempts = a.attempt + 1;
    d.slot = index;
    d.queueMs = elapsedMs(a.enqueuedAt, s.sentAt);
    d.execMs = execMs;
    d.result.queueMs = d.queueMs;
    out.push_back(std::move(d));
}

void
IsolatePool::finishJobs(std::vector<Done> &out)
{
    for (unsigned i = 0; i < slots.size(); ++i) {
        Slot &s = slots[i];
        if (!s.busy || !recordArrived(s.buf))
            continue;
        JobOutcome cls = classifyRecord(s.buf);
        // Only a clean record lets the worker run another job; any
        // failure, sim_error included, might have left it changed.
        bool clean = cls.kind == FailKind::None;
        if (!clean || s.eof ||
            (opts.memLimitMb > 0 && pastRecycleSize(s.pid))) {
            retireWorker(s, !clean);
        }
        conclude(i, cls, out);
    }
}

void
IsolatePool::enforceDeadlines()
{
    Clock::time_point now = Clock::now();
    for (Slot &s : slots) {
        if (s.busy && !s.eof && s.hasDeadline && !s.killed &&
            now >= s.deadline) {
            ::kill(s.pid, SIGKILL);
            s.killed = true;
        }
    }
}

void
IsolatePool::reapDeadWorkers(std::vector<Done> &out)
{
    for (unsigned i = 0; i < slots.size(); ++i) {
        Slot &s = slots[i];
        if (s.pid < 0 || !s.eof)
            continue;
        pid_t pid = s.pid;
        ::close(s.fd);
        int status = waitFor(pid);
        s.pid = -1;
        s.fd = -1;
        s.eof = false;
        if (s.busy) {
            JobOutcome cls = classifyDeath(s.killed, status, opts);
            conclude(i, cls, out);
        } else {
            warn("isolate: idle worker %d in slot %u died (status "
                 "0x%x); the slot's next job forks a new one",
                 static_cast<int>(pid), i, status);
        }
    }
}

std::vector<IsolatePool::Done>
IsolatePool::service()
{
    std::vector<Done> out = std::move(finished);
    finished.clear();
    drainChannels();
    finishJobs(out);
    enforceDeadlines();
    reapDeadWorkers(out);
    pump();
    // A just-pumped fallback (fork failure) is already final too.
    for (Done &d : finished)
        out.push_back(std::move(d));
    finished.clear();
    return out;
}

void
runIsolated(harness::Runner &runner,
            const std::vector<SweepJob> &jobs,
            const std::vector<size_t> &pending,
            const std::vector<uint64_t> &fps,
            const IsolateOptions &opts,
            std::vector<RunResult> &results)
{
    if (pending.empty())
        return;

    // Pre-warm every workload's functional pre-pass before the first
    // fork so each worker inherits it copy-on-write instead of redoing
    // it. Per-call error traps keep a bad workload fail-soft here (the
    // worker will then fail the same way and say so in its record).
    {
        std::vector<std::string> names;
        for (size_t i : pending) {
            const std::string &w = jobs[i].workload;
            if (std::find(names.begin(), names.end(), w) == names.end())
                names.push_back(w);
        }
        parallelFor(names.size(), opts.slots, [&](size_t n) {
            try {
                ScopedErrorTrap trap;
                runner.prepass(names[n]);
            } catch (const SimError &) {
            }
        });
    }

    IsolatePool pool(opts, &runner);
    for (size_t i : pending) {
        IsolatePool::Task t;
        t.token = i;
        t.job = jobs[i];
        t.scale = runner.scale();
        t.fp = fps[i];
        pool.enqueue(std::move(t));
    }

    while (!pool.idle()) {
        pool.pump();
        std::vector<struct pollfd> pfds;
        pool.addPollFds(pfds);
        int timeout = pool.timeoutMs();
        if (!pfds.empty()) {
            int rc = ::poll(pfds.data(), pfds.size(), timeout);
            if (rc < 0 && errno != EINTR) {
                panic("isolate: poll failed (%s)",
                      std::strerror(errno));
            }
        } else if (timeout > 0) {
            // Only backoff-delayed retries remain: sleep it off.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(timeout));
        }
        for (IsolatePool::Done &d : pool.service())
            results[d.token] = std::move(d.result);
    }
}

} // namespace sweep
} // namespace cwsim
