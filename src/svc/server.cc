#include "svc/server.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>

#include "base/jsonl.hh"
#include "base/logging.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "svc/log.hh"
#include "svc/protocol.hh"

namespace cwsim
{
namespace svc
{

namespace
{

std::string
field(const std::map<std::string, std::string> &fields,
      const char *key)
{
    auto it = fields.find(key);
    return it == fields.end() ? std::string() : it->second;
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    if (to <= from)
        return 0;
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(to - from)
        .count();
}

/** Stable label value for a submit-rejection reason. */
const char *
rejectReasonSlug(const std::string &reason)
{
    if (reason == "draining")
        return "draining";
    if (reason == "queue full")
        return "queue_full";
    if (reason == "quota exceeded")
        return "quota";
    if (reason == "sweep id already in flight")
        return "duplicate_id";
    return "bad_spec"; // parse errors carry free-form text
}

constexpr const char *reject_help =
    "Whole-sweep submits rejected, by reason.";
constexpr const char *result_help =
    "Executed run outcomes, by failure kind (none = success).";

// Trace-event track layout: one process row for client tracks, one
// for worker-slot tracks (tid 0 is reserved for metadata).
constexpr uint64_t trace_pid_clients = 1;
constexpr uint64_t trace_pid_slots = 2;

} // anonymous namespace

Server::Server(ServerOptions o) : opts(std::move(o))
{
    if (opts.defaultScale == 0)
        opts.defaultScale = harness::benchScale();
    sched = Scheduler(opts.limits);
}

Server::~Server()
{
    for (auto &[fd, s] : sessions)
        ::close(fd);
    closeFd(unixFd);
    closeFd(stopRd);
    closeFd(stopWr);
    if (!opts.socketPath.empty())
        ::unlink(opts.socketPath.c_str());
}

bool
Server::start(std::string *err)
{
    // A client that disconnects mid-stream must cost us an EPIPE
    // errno, not a process-killing signal.
    ::signal(SIGPIPE, SIG_IGN);

    logInit();
    startedAt = std::chrono::steady_clock::now();
    registerMetrics();
    sched.setMetrics(&metrics);

    cache = std::make_unique<sweep::RunCache>(opts.cacheDir);

    int pipeFds[2];
    if (::pipe2(pipeFds, O_CLOEXEC | O_NONBLOCK) < 0) {
        if (err)
            *err = strfmt("pipe2: %s", std::strerror(errno));
        return false;
    }
    stopRd = pipeFds[0];
    stopWr = pipeFds[1];

    if (opts.socketPath.empty()) {
        if (err)
            *err = "a Unix socket path is required";
        return false;
    }
    struct sockaddr_un addr{};
    if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = strfmt("socket path too long: %s",
                          opts.socketPath.c_str());
        return false;
    }
    unixFd = ::socket(AF_UNIX,
                      SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (unixFd < 0) {
        if (err)
            *err = strfmt("socket: %s", std::strerror(errno));
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opts.socketPath.c_str()); // stale socket from a dead daemon
    if (::bind(unixFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(unixFd, 64) < 0) {
        if (err)
            *err = strfmt("bind %s: %s", opts.socketPath.c_str(),
                          std::strerror(errno));
        return false;
    }

    sweep::IsolateOptions iopts;
    iopts.slots = opts.slots;
    iopts.timeoutSec = opts.timeoutSec;
    iopts.memLimitMb = opts.memLimitMb;
    iopts.retries = opts.retries;
    pool = std::make_unique<sweep::IsolatePool>(iopts);
    pool->setMetrics(&metrics);

    if (!opts.traceEventsPath.empty()) {
        trace = std::make_unique<obs::TraceEventWriter>(
            opts.traceEventsPath);
        if (!trace->ok()) {
            trace.reset();
        } else {
            trace->metaProcessName(trace_pid_clients, "clients");
            trace->metaProcessName(trace_pid_slots, "worker slots");
            unsigned slots = std::max(1u, opts.slots);
            for (unsigned i = 0; i < slots; i++) {
                trace->metaThreadName(trace_pid_slots, i + 1,
                                      strfmt("slot %u", i));
            }
        }
    }

    if (!opts.metricsPath.empty()) {
        nextMetricsDump =
            startedAt + std::chrono::microseconds(static_cast<int64_t>(
                            opts.metricsPeriodSec * 1e6));
    }
    return true;
}

void
Server::registerMetrics()
{
    sm.sessions = &metrics.counter("cwsimd_sessions_total",
                                   "Client sessions accepted.");
    sm.sessionsOpen =
        &metrics.gauge("cwsimd_sessions_open", "Connected clients.");
    sm.submits = &metrics.counter("cwsimd_submits_total",
                                  "Sweep submits received.");
    sm.submitsAccepted = &metrics.counter(
        "cwsimd_submits_accepted_total", "Sweep submits admitted.");
    // Pre-register every rejection reason and failure kind so the
    // exposition (and a CI assertion on a zero crash count) always
    // sees the series, not just the ones that fired.
    for (const char *reason :
         {"draining", "queue_full", "quota", "duplicate_id",
          "bad_spec"}) {
        metrics.counter("cwsimd_submits_rejected_total", reject_help,
                        "reason", reason);
    }
    sm.runsAdmitted = &metrics.counter(
        "cwsimd_runs_admitted_total",
        "Fresh run units admitted to the execution queue.");
    sm.dedupeHits = &metrics.counter(
        "cwsimd_dedupe_hits_total",
        "Runs served by subscribing to an in-flight unit.");
    sm.cacheHits = &metrics.counter(
        "cwsimd_cache_hits_total",
        "Runs served from the shared run cache.");
    sm.executed = &metrics.counter("cwsimd_runs_executed_total",
                                   "Run units executed to completion.");
    for (const char *kind :
         {"none", "sim_error", "crash", "timeout", "oom", "protocol"}) {
        metrics.counter("cwsimd_run_results_total", result_help,
                        "kind", kind);
    }
    sm.runLatency = &metrics.histogram(
        "cwsimd_run_latency_seconds",
        "End-to-end run latency, admission to completion, seconds.",
        obs::Histogram::latencySeconds());
    sm.backlogDrops = &metrics.counter(
        "cwsimd_backlog_drops_total",
        "Sessions dropped for exceeding the output-backlog cap.");
    sm.protocolErrors = &metrics.counter(
        "cwsimd_protocol_errors_total",
        "Malformed, unknown, or oversized client requests.");
    sm.cacheSize = &metrics.gauge("cwsimd_cache_size",
                                  "Records in the shared run cache.");
    sm.uptimeMs =
        &metrics.gauge("cwsimd_uptime_ms", "Daemon uptime, ms.");
    sm.depprofRuns = &metrics.counter(
        "cwsimd_depprof_runs_total",
        "Executed runs that carried a dependence profile.");
    sm.depprofEdges = &metrics.counter(
        "cwsimd_depprof_edges_total",
        "Dependence edges summed over all profiled runs.");
    sm.depprofLastEdges = &metrics.gauge(
        "cwsimd_depprof_last_edges",
        "Dependence edges of the most recent profiled run.");
}

void
Server::refreshSnapshotGauges()
{
    sm.cacheSize->set(static_cast<double>(cache ? cache->size() : 0));
    sm.uptimeMs->set(
        elapsedMs(startedAt, std::chrono::steady_clock::now()));
}

void
Server::dumpMetricsFile()
{
    refreshSnapshotGauges();
    std::string tmp = opts.metricsPath + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return;
    std::string text = metrics.prometheusText();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    // Atomic publish: a scraper never sees a torn file.
    std::rename(tmp.c_str(), opts.metricsPath.c_str());
}

void
Server::requestStop()
{
    // Async-signal-safe: one write to the self-pipe. A full pipe means
    // a stop is already pending, which is fine.
    if (stopWr >= 0) {
        char b = 1;
        [[maybe_unused]] ssize_t n = ::write(stopWr, &b, 1);
    }
}

harness::Runner &
Server::runnerFor(uint64_t scale)
{
    auto &slot = runners[scale];
    if (!slot)
        slot = std::make_unique<harness::Runner>(scale);
    return *slot;
}

Server::Session *
Server::sessionByClient(uint64_t client)
{
    for (auto &[fd, s] : sessions) {
        if (s.id == client)
            return &s;
    }
    return nullptr;
}

void
Server::send(Session &s, const std::string &line)
{
    if (s.dead)
        return;
    s.outBuf += line;
    s.outBuf += '\n';
    if (s.outBuf.size() > opts.maxOutBuf) {
        logLine(s.id, strfmt("dropped: output backlog exceeded the "
                             "%zu-byte cap",
                             opts.maxOutBuf));
        sm.backlogDrops->inc();
        s.dead = true;
        return;
    }
    flushSession(s);
}

void
Server::flushSession(Session &s)
{
    while (!s.dead && !s.outBuf.empty()) {
        ssize_t n = ::write(s.fd, s.outBuf.data(), s.outBuf.size());
        if (n > 0) {
            s.outBuf.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // poll will retry when writable
        s.dead = true; // EPIPE/ECONNRESET: the client is gone
    }
}

void
Server::acceptPending(int listenFd)
{
    for (;;) {
        int fd = ::accept4(listenFd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN, or a transient accept error
        }
        Session s;
        s.id = nextClientId++;
        s.fd = fd;
        uint64_t id = s.id;
        sessions.emplace(fd, std::move(s));
        sm.sessions->inc();
        sm.sessionsOpen->set(static_cast<double>(sessions.size()));
        if (trace) {
            trace->metaThreadName(trace_pid_clients, id,
                                  strfmt("client %llu",
                                         (unsigned long long)id));
        }
        logLine(id, "connected");
    }
}

void
Server::deliverRecord(Session &s, const RunRef &ref,
                      const harness::RunResult &r, uint64_t fp,
                      uint64_t scale)
{
    JsonObject env;
    env.add("ev", "run")
        .add("id", ref.sweepId)
        .add("seq", ref.seq)
        .add("total", ref.total);
    send(s, mergeJson(env.str(), sweep::runRecordLine(r, fp, scale)));

    SweepProgress &prog = s.sweeps[ref.sweepId];
    prog.total = ref.total;
    ++prog.delivered;
    if (!r.ok) {
        if (r.injectedHostFault)
            ++prog.injected;
        else
            ++prog.failed;
    }
    if (prog.delivered >= prog.total) {
        JsonObject done;
        done.add("ev", "done")
            .add("id", ref.sweepId)
            .add("runs", prog.total)
            .add("failed", prog.failed)
            .add("injected", prog.injected);
        send(s, done.str());
        s.sweeps.erase(ref.sweepId);
    }
}

void
Server::emitRunSpans(const RunUnit &unit, const harness::RunResult &r,
                     const ExecInfo &info,
                     const std::vector<RunRef> &refs)
{
    if (!trace)
        return;
    uint64_t endUs = trace->nowUs();
    uint64_t startUs = trace->tsUs(unit.admittedAt);
    uint64_t dispatchUs = trace->tsUs(unit.dispatchedAt);
    uint64_t execUs = static_cast<uint64_t>(info.execMs * 1000.0);
    std::string name = unit.job.workload + " " + unit.job.config.name();
    obs::TraceEventWriter::Args args = {
        {"workload", unit.job.workload},
        {"config", unit.job.config.name()},
        {"result", harness::toString(r.failKind)},
    };

    // One span per executed run on its worker slot's track, sized by
    // the parent-observed execute time.
    uint64_t execStartUs = endUs > execUs ? endUs - execUs : 0;
    trace->complete(name, "exec", trace_pid_slots, info.slot + 1,
                    execStartUs, execUs, args);

    // Each subscribed client's track gets the full lifecycle span
    // (admitted → replied) with a nested queue-wait span; Perfetto
    // shows the wait as the contained child.
    uint64_t queuedUs = dispatchUs > startUs ? dispatchUs - startUs : 0;
    for (const RunRef &ref : refs) {
        trace->complete(name, "run", trace_pid_clients, ref.client,
                        startUs, endUs > startUs ? endUs - startUs : 0,
                        args);
        trace->complete("queued", "queue", trace_pid_clients,
                        ref.client, startUs, queuedUs);
    }
}

void
Server::finishUnit(uint64_t key, harness::RunResult r,
                   const std::vector<std::string> &intervalLines,
                   const ExecInfo &info)
{
    RunUnit *unit = sched.find(key);
    if (!unit)
        return;
    uint64_t fp = unit->fp;
    uint64_t scale = unit->scale;

    // Queue wait = scheduler queue (admit → dispatch) + executor queue
    // (enqueue → fork); both are host-side and ride in the record as
    // the queue_ms field next to wall_ms.
    r.queueMs =
        elapsedMs(unit->admittedAt, unit->dispatchedAt) + info.queueMs;

    cache->append(fp, scale, r);
    sm.executed->inc();
    if (r.depProfiled) {
        sm.depprofRuns->inc();
        sm.depprofEdges->inc(r.depEdges);
        sm.depprofLastEdges->set(static_cast<double>(r.depEdges));
    }
    metrics
        .counter("cwsimd_run_results_total", result_help, "kind",
                 harness::toString(r.failKind))
        .inc();
    sm.runLatency->observe(
        elapsedMs(unit->admittedAt, std::chrono::steady_clock::now()) /
        1000.0);

    // complete() erases the unit, so snapshot what the spans need
    // first (the refs come back from complete itself).
    RunUnit unitCopy = *unit;
    std::vector<RunRef> refs = sched.complete(key);
    emitRunSpans(unitCopy, r, info, refs);
    for (const RunRef &ref : refs) {
        Session *s = sessionByClient(ref.client);
        if (!s || s->dead)
            continue; // orphaned subscription; the cache has it
        for (const std::string &sample : intervalLines) {
            JsonObject env;
            env.add("ev", "interval")
                .add("id", ref.sweepId)
                .add("seq", ref.seq);
            send(*s, mergeJson(env.str(), sample));
        }
        deliverRecord(*s, ref, r, fp, scale);
    }
}

void
Server::dispatchReady()
{
    while (pool->freeSlots() > 0) {
        RunUnit *unit = sched.next();
        if (!unit)
            break;
        harness::Runner &runner = runnerFor(unit->scale);
        // Pre-warm the functional pre-pass in the parent so every
        // forked child inherits it copy-on-write. Fail-soft: if the
        // workload is broken, the child hits the same error and says
        // so in its record.
        try {
            ScopedErrorTrap trap;
            runner.prepass(unit->job.workload);
        } catch (const SimError &) {
        }
        sweep::IsolatePool::Task task;
        task.token = unit->key;
        task.runner = &runner;
        task.job = unit->job;
        task.fp = unit->fp;
        task.intervalCycles = unit->intervalCycles;
        pool->enqueue(std::move(task));
    }
    pool->pump(); // fork now so the new pipes join this poll round
}

void
Server::handleSubmit(Session &s,
                     const std::map<std::string, std::string> &req)
{
    std::string id = field(req, "id");
    sm.submits->inc();
    auto reject = [&](const std::string &reason) {
        metrics
            .counter("cwsimd_submits_rejected_total", reject_help,
                     "reason", rejectReasonSlug(reason))
            .inc();
        logLine(s.id, strfmt("submit '%s' rejected: %s", id.c_str(),
                             reason.c_str()));
        JsonObject o;
        o.add("ev", "rejected").add("id", id).add("reason", reason);
        send(s, o.str());
    };

    if (draining)
        return reject("draining");
    SweepSpec spec;
    std::string err;
    if (!parseSweepSpec(req, spec, err))
        return reject(err);
    if (s.sweeps.count(spec.id))
        return reject("sweep id already in flight");

    uint64_t scale = spec.scale ? spec.scale : opts.defaultScale;
    std::vector<sweep::SweepJob> jobs = spec.jobs();

    // Admission is all-or-nothing: a dry pass sorts every job into its
    // service tier — cache hit, subscribe to an in-flight unit, or
    // fresh unit — and the whole submit is rejected if the fresh units
    // would overflow the queue or the refs would bust the client's
    // quota. Partial sweeps help nobody.
    enum Tier { Cached, Attach, Fresh };
    std::vector<uint64_t> fps(jobs.size());
    std::vector<Tier> tier(jobs.size(), Cached);
    std::set<uint64_t> freshFps;
    uint64_t cached = 0, attached = 0, fresh = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        fps[i] = sweep::fingerprintRun(jobs[i].workload, scale,
                                       jobs[i].config);
        harness::RunResult hit;
        if (cache->lookup(fps[i], hit)) {
            tier[i] = Cached;
            ++cached;
        } else if (sched.hasPending(fps[i]) || freshFps.count(fps[i])) {
            tier[i] = Attach;
            ++attached;
        } else {
            tier[i] = Fresh;
            ++fresh;
            freshFps.insert(fps[i]);
        }
    }
    std::string reason;
    if (!sched.canAdmit(s.id, fresh, attached + fresh, reason))
        return reject(reason);

    sm.submitsAccepted->inc();
    logLine(s.id, strfmt("submit '%s' accepted: %zu runs (%llu "
                         "cached, %llu deduped, %llu queued)",
                         spec.id.c_str(), jobs.size(),
                         (unsigned long long)cached,
                         (unsigned long long)attached,
                         (unsigned long long)fresh));
    JsonObject acc;
    acc.add("ev", "accepted")
        .add("id", spec.id)
        .add("runs", static_cast<uint64_t>(jobs.size()))
        .add("cached", cached)
        .add("deduped", attached)
        .add("queued", fresh);
    send(s, acc.str());

    s.sweeps[spec.id] = SweepProgress{jobs.size(), 0, 0, 0};
    for (size_t i = 0; i < jobs.size(); ++i) {
        RunRef ref{s.id, spec.id, i, jobs.size()};
        if (tier[i] == Cached) {
            harness::RunResult hit;
            cache->lookup(fps[i], hit);
            hit.cacheHit = true;
            // A hit never queued for THIS delivery; the stored
            // queue_ms belongs to whoever paid for the run.
            hit.queueMs = 0;
            sm.cacheHits->inc();
            if (trace) {
                trace->instant(
                    jobs[i].workload + " " + jobs[i].config.name(),
                    "cache_hit", trace_pid_clients, s.id,
                    trace->nowUs());
            }
            deliverRecord(s, ref, hit, fps[i], scale);
        } else {
            if (sched.admit(ref, fps[i], jobs[i], scale,
                            spec.intervalCycles)) {
                sm.runsAdmitted->inc();
            } else {
                sm.dedupeHits->inc();
            }
        }
    }
}

void
Server::handleLine(Session &s, const std::string &line)
{
    std::map<std::string, std::string> req;
    if (!parseFlatJson(line, req)) {
        sm.protocolErrors->inc();
        JsonObject o;
        o.add("ev", "error").add("reason", "malformed request");
        send(s, o.str());
        return;
    }
    std::string cmd = field(req, "cmd");
    if (cmd == "hello") {
        JsonObject o;
        o.add("ev", "hello")
            .add("proto", static_cast<uint64_t>(protocol_version))
            .add("slots", static_cast<uint64_t>(opts.slots))
            .add("cache_dir", opts.cacheDir)
            .add("cache_size", static_cast<uint64_t>(cache->size()))
            .add("scale", opts.defaultScale);
        send(s, o.str());
    } else if (cmd == "ping") {
        JsonObject o;
        o.add("ev", "pong");
        send(s, o.str());
    } else if (cmd == "stats") {
        refreshSnapshotGauges();
        JsonObject o;
        o.add("ev", "stats")
            .add("slots", static_cast<uint64_t>(opts.slots))
            .add("draining", draining);
        // The registry carries every counter and gauge; its names are
        // cwsimd_/cwsim_-prefixed, so the keys above cannot collide.
        send(s, mergeJson(o.str(), metrics.flatJson()));
    } else if (cmd == "corpus") {
        // The whole shared corpus, one record per event — what
        // `cwsim-report --connect` renders from.
        uint64_t count = 0;
        cache->forEach([&](uint64_t fp, uint64_t scale,
                           const harness::RunResult &r) {
            JsonObject env;
            env.add("ev", "corpus_record");
            send(s, mergeJson(env.str(),
                              sweep::runRecordLine(r, fp, scale)));
            ++count;
        });
        JsonObject o;
        o.add("ev", "corpus_done").add("count", count);
        send(s, o.str());
    } else if (cmd == "submit") {
        handleSubmit(s, req);
    } else if (cmd == "shutdown") {
        // Same path as SIGTERM: drain, then the final shutdown event.
        requestStop();
    } else {
        sm.protocolErrors->inc();
        JsonObject o;
        o.add("ev", "error")
            .add("reason", strfmt("unknown cmd '%s'", cmd.c_str()));
        send(s, o.str());
    }
}

void
Server::reapDeadSessions()
{
    for (auto it = sessions.begin(); it != sessions.end();) {
        if (!it->second.dead) {
            ++it;
            continue;
        }
        // The client's units become orphans and still execute; only
        // the subscriptions die with the session.
        logLine(it->second.id, "disconnected");
        sched.dropClient(it->second.id);
        ::close(it->second.fd);
        it = sessions.erase(it);
        sm.sessionsOpen->set(static_cast<double>(sessions.size()));
    }
}

int
Server::run()
{
    std::vector<struct pollfd> pfds;
    char buf[65536];
    for (;;) {
        // A drain is complete once every admitted run has finished —
        // orphans included, so a SIGTERM never discards paid-for work.
        if (draining && sched.queued() == 0 && sched.running() == 0 &&
            pool->idle()) {
            for (auto &[fd, s] : sessions) {
                JsonObject o;
                o.add("ev", "shutdown");
                send(s, o.str());
                // Final flush: switch to blocking so the goodbye
                // cannot be lost to one EAGAIN.
                int flags = ::fcntl(fd, F_GETFL, 0);
                ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
                flushSession(s);
                ::close(fd);
            }
            sessions.clear();
            sm.sessionsOpen->set(0);
            // Final telemetry: one last exposition dump and the
            // trace-event array's closing bracket.
            if (!opts.metricsPath.empty())
                dumpMetricsFile();
            if (trace)
                trace->finish();
            // The address dies with the service, not the process: a
            // supervisor polling the path sees the drain finish even
            // though the Server object lingers.
            closeFd(unixFd);
            ::unlink(opts.socketPath.c_str());
            return 0;
        }

        dispatchReady();

        pfds.clear();
        pfds.push_back({stopRd, POLLIN, 0});
        if (!draining) {
            if (unixFd >= 0)
                pfds.push_back({unixFd, POLLIN, 0});
        }
        size_t sessionsAt = pfds.size();
        for (auto &[fd, s] : sessions) {
            short events = POLLIN;
            if (!s.outBuf.empty())
                events |= POLLOUT;
            pfds.push_back({fd, events, 0});
        }
        size_t poolAt = pfds.size();
        pool->addPollFds(pfds);

        int timeout = pool->timeoutMs();
        if (!opts.metricsPath.empty()) {
            // Wake in time for the next metrics-file dump too.
            int dumpMs = static_cast<int>(std::max(
                0.0, elapsedMs(std::chrono::steady_clock::now(),
                               nextMetricsDump)));
            timeout = timeout < 0 ? dumpMs + 1
                                  : std::min(timeout, dumpMs + 1);
        }

        int rc = ::poll(pfds.data(), pfds.size(), timeout);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            panic("cwsimd: poll failed (%s)", std::strerror(errno));
        }

        if (pfds[0].revents & POLLIN) {
            while (::read(stopRd, buf, sizeof(buf)) > 0) {
            }
            if (!draining) {
                draining = true;
                closeFd(unixFd);
                logLine(0, strfmt("drain requested; listener closed, "
                                  "%zu run(s) still in flight",
                                  sched.queued() + sched.running()));
            }
        }
        if (!draining) {
            for (size_t i = 1; i < sessionsAt; ++i) {
                if (pfds[i].revents & POLLIN)
                    acceptPending(pfds[i].fd);
            }
        }

        // Sessions: read requests, resume stalled writes. Handle by
        // fd lookup — a session may have died earlier this round.
        for (size_t i = sessionsAt; i < poolAt; ++i) {
            auto it = sessions.find(pfds[i].fd);
            if (it == sessions.end())
                continue;
            Session &s = it->second;
            if (pfds[i].revents & POLLOUT)
                flushSession(s);
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            for (;;) {
                ssize_t n = ::read(s.fd, buf, sizeof(buf));
                if (n > 0) {
                    s.inBuf.append(buf, static_cast<size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                if (n < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                s.dead = true; // EOF or hard error
                break;
            }
            std::string line;
            while (!s.dead && takeLine(s.inBuf, line)) {
                if (line.size() > max_request_line) {
                    sm.protocolErrors->inc();
                    JsonObject o;
                    o.add("ev", "error")
                        .add("reason", "request line too long");
                    send(s, o.str());
                    s.dead = true;
                    break;
                }
                if (!trim(line).empty())
                    handleLine(s, line);
            }
            // An unterminated line beyond the cap is the same
            // violation as an oversized one — don't buffer it forever.
            if (!s.dead && s.inBuf.size() > max_request_line) {
                sm.protocolErrors->inc();
                JsonObject o;
                o.add("ev", "error")
                    .add("reason", "request line too long");
                send(s, o.str());
                s.dead = true;
            }
        }

        for (sweep::IsolatePool::Done &d : pool->service()) {
            ExecInfo info{d.slot, d.queueMs, d.execMs};
            finishUnit(d.token, d.result, d.intervalLines, info);
        }

        if (!opts.metricsPath.empty() &&
            std::chrono::steady_clock::now() >= nextMetricsDump) {
            dumpMetricsFile();
            nextMetricsDump =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(static_cast<int64_t>(
                    opts.metricsPeriodSec * 1e6));
        }

        reapDeadSessions();
    }
}

} // namespace svc
} // namespace cwsim
