/**
 * @file
 * daemon-churn: many short runs through a real cwsimd.
 *
 * Each round launches cwsimd with 2 worker slots on a fresh cache
 * directory (the set-up), then one client connection submits one
 * sweep per kernel (8 configs at a small scale) in seeded order and
 * waits for every result. It then resubmits the same sweeps with two
 * more configs each, so corpus hits and fresh runs share the phase.
 * The round ends when the last result arrives; the daemon is then
 * drained, reaped and its CPU and peak RSS collected.
 *
 * Traced rounds (every other round of a traced run) add cwsimd
 * --trace-events for the fork-to-reap execute spans. After the rounds,
 * the traced run replays one round's fresh jobs in this process with
 * spans around each call the daemon's children make, to split the run
 * time by layer.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "svc/client.hh"
#include "svc/spec.hh"
#include "sweep/run_cache.hh"
#include "sweep/sweep.hh"
#include "tracer.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

extern char **environ;

namespace cwbench
{

using cwsim::harness::RunResult;
using namespace cwsim;

namespace
{

/** Short runs, so the daemon's per-run overheads dominate. */
constexpr uint64_t churn_scale = 5000;

/**
 * Policies without a synchronization, selective or barrier gate, so
 * those MDP paths stay idle here and policy-matrix alone exercises
 * them.
 */
const char *const base_configs[] = {
    "mdp.policy=NO",
    "mdp.policy=NAV",
    "mdp.policy=ORACLE",
    "mdp.lsqModel=AS,mdp.policy=NO",
    "mdp.lsqModel=AS,mdp.policy=NAV",
    "mdp.lsqModel=AS,mdp.policy=ORACLE",
    "mdp.lsqModel=AS,mdp.policy=NAV,mdp.asLatency=1",
    "mdp.lsqModel=AS,mdp.policy=NAV,mdp.asLatency=2",
};

/** Added on resubmission: fresh runs beside the corpus hits. */
const char *const new_configs[] = {
    "mdp.policy=NAV,mdp.recovery=selective",
    "mdp.policy=ORACLE,mdp.recovery=selective",
};

std::map<std::string, std::string>
submitFields(const std::string &id, const std::string &kernel,
             bool resubmit)
{
    std::string configs;
    auto append = [&](const char *c) {
        if (!configs.empty())
            configs += ';';
        configs += c;
    };
    for (const char *c : base_configs)
        append(c);
    if (resubmit) {
        for (const char *c : new_configs)
            append(c);
    }
    return {{"cmd", "submit"},
            {"id", id},
            {"workloads", kernel},
            {"scale", std::to_string(churn_scale)},
            {"configs", configs}};
}

std::string
toLine(const std::map<std::string, std::string> &fields)
{
    JsonObject obj;
    obj.add("cmd", fields.at("cmd"));
    for (const auto &[k, v] : fields) {
        if (k != "cmd")
            obj.add(k, v);
    }
    return obj.str();
}

std::string
field(const std::map<std::string, std::string> &ev, const char *key)
{
    auto it = ev.find(key);
    return it == ev.end() ? std::string() : it->second;
}

/** A launched cwsimd. The destructor kills and reaps a live one. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool
    launch(const std::string &binary, const std::vector<std::string> &args,
           const std::string &logPath, std::string &err)
    {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(binary.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
        posix_spawn_file_actions_addopen(
            &fa, 1, logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        int rc = posix_spawn(&pid, binary.c_str(), &fa, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid = -1;
            err = "cannot launch " + binary + ": " + std::strerror(rc);
            return false;
        }
        return true;
    }

    /** True while the process has not exited. */
    bool
    alive()
    {
        if (pid <= 0)
            return false;
        if (::waitpid(pid, nullptr, WNOHANG) == pid) {
            pid = -1;
            return false;
        }
        return true;
    }

    /** Wait up to @p timeoutS for exit, then SIGKILL; reaps either way. */
    void
    reap(double timeoutS)
    {
        double until = nowSec() + timeoutS;
        while (alive() && nowSec() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            pid = -1;
        }
    }

  private:
    pid_t pid = -1;
};

/** What one churn round observed. */
struct ChurnRound
{
    double startS = 0;
    double makespanS = 0;
    double cpuS = 0;
    double firstResultMs = 0;
    std::vector<double> queueMs; ///< Fresh runs.
    std::vector<double> hitGapUs;
    double resubHits = 0;
    double resubResults = 0;
    size_t fresh = 0;
    uint64_t freshCommits = 0;
    double freshWallMs = 0;
    double maxWallMs = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double execMsSum = 0; ///< Daemon's fork-to-reap spans (traced).
};

/** Read events until @p sweeps "done" events arrived. */
bool
drain(svc::Client &client, size_t sweeps, bool resubmit, double submitAt,
      Expected &expected, ChurnRound &round, std::string &err)
{
    std::map<std::string, std::string> ev;
    size_t done = 0;
    double lastHit = 0;
    while (done < sweeps) {
        bool got;
        {
            Span s("svc.wait");
            got = client.nextEvent(ev, &err);
        }
        if (!got) {
            if (err.empty())
                err = "cwsimd closed the connection mid-round";
            return false;
        }
        std::string kind = field(ev, "ev");
        if (kind == "done") {
            ++done;
            continue;
        }
        if (kind == "rejected" || kind == "error" || kind == "shutdown") {
            err = "cwsimd: " + kind + " " + field(ev, "reason");
            return false;
        }
        if (kind != "run")
            continue;
        double now = nowSec();
        if (round.firstResultMs == 0)
            round.firstResultMs = (now - submitAt) * 1e3;
        RunResult r;
        bool parsed;
        {
            Span s("sweep.record_parse");
            parsed = sweep::runRecordParse(ev, r);
        }
        ++round.attempted;
        if (!parsed || !r.ok ||
            !expected.check(field(ev, "fp"), runSignature(r))) {
            ++round.failed;
        }
        if (resubmit)
            ++round.resubResults;
        if (r.cacheHit) {
            if (resubmit)
                ++round.resubHits;
            if (lastHit > 0)
                round.hitGapUs.push_back((now - lastHit) * 1e6);
            lastHit = now;
        } else {
            ++round.fresh;
            round.freshCommits += r.commits;
            round.freshWallMs += r.wallMs;
            round.maxWallMs = std::max(round.maxWallMs, r.wallMs);
            round.queueMs.push_back(r.queueMs);
        }
    }
    return true;
}

/** Sum of the "exec" span durations in a cwsimd trace-events file, ms. */
double
execSpanMs(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    double sum = 0;
    while (std::getline(in, line)) {
        if (line.find("\"cat\":\"exec\"") == std::string::npos)
            continue;
        size_t at = line.find("\"dur\":");
        if (at != std::string::npos)
            sum += std::strtod(line.c_str() + at + 6, nullptr) / 1e3;
    }
    return sum;
}

bool
runChurnRound(const Options &opts, Expected &expected, uint64_t index,
              bool traced, ChurnRound &round, std::string &err)
{
    Span roundSpan("round", static_cast<int64_t>(index));
    const std::vector<std::string> &kernels = workloads::allNames();
    std::string cacheDir = opts.workDir + "/churn-cache";
    std::string socket = opts.workDir + "/cwsimd.sock";
    std::string events = opts.workDir + "/cwsimd-trace.json";
    std::error_code ec;
    std::filesystem::remove_all(cacheDir, ec);
    std::filesystem::remove(socket, ec);
    std::filesystem::remove(events, ec);

    std::vector<std::string> args = {
        "--socket", socket, "--cache-dir", cacheDir, "--jobs",
        std::to_string(bench_workers), "--quota", "100000",
        "--max-queued", "100000"};
    if (traced) {
        args.push_back("--trace-events");
        args.push_back(events);
    }

    Daemon daemon;
    svc::Client client;
    double childCpu0 = cpuChildren();
    {
        Span s("setup");
        double t = nowSec();
        if (!daemon.launch(opts.cwsimd, args,
                           opts.workDir + "/cwsimd.log", err))
            return false;
        std::string cerr;
        while (!client.connectUnix(socket, &cerr)) {
            if (!daemon.alive() || nowSec() - t > 30) {
                err = "cwsimd did not accept a connection: " + cerr;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        round.startS = nowSec() - t;
    }

    double selfCpu0 = cpuSelf();
    double t0 = nowSec();
    for (bool resubmit : {false, true}) {
        std::vector<size_t> order = permutation(
            kernels.size(), opts.seed, index * 2 + (resubmit ? 1 : 0));
        double submitAt = nowSec();
        for (size_t k : order) {
            std::string id = strfmt("%s%zu", resubmit ? "b" : "a", k);
            Span s("svc.submit");
            if (!client.sendLine(
                    toLine(submitFields(id, kernels[k], resubmit)), &err))
                return false;
        }
        if (!drain(client, kernels.size(), resubmit, submitAt, expected,
                   round, err))
            return false;
    }
    round.makespanS = nowSec() - t0;
    double selfCpu = cpuSelf() - selfCpu0;

    // Drain the daemon; its children's CPU arrives with the reap.
    client.sendLine("{\"cmd\":\"shutdown\"}", &err);
    std::map<std::string, std::string> ev;
    while (client.nextEvent(ev, &err) && field(ev, "ev") != "shutdown") {
    }
    client.close();
    daemon.reap(30);
    round.cpuS = selfCpu + (cpuChildren() - childCpu0);
    if (traced)
        round.execMsSum = execSpanMs(events);
    return true;
}

/**
 * The traced replay: the round's fresh jobs in this process, with
 * spans around construction, the timing loop, the check, the stats
 * export, record encode/parse and run-cache append/lookup.
 */
bool
replay(const Options &opts, Expected &expected, double makespanS,
       Outcome &out, std::string &err)
{
    const std::vector<std::string> &kernels = workloads::allNames();
    harness::Runner runner(churn_scale);
    double buildS = 0, prepassS = 0, insts = 0;
    for (const std::string &k : kernels) {
        double t = nowSec();
        {
            Span s("workloads.build");
            runner.workload(k);
        }
        double u = nowSec();
        {
            Span s("mdp.prepass");
            insts += static_cast<double>(runner.prepass(k).instCount);
        }
        buildS += u - t;
        prepassS += nowSec() - u;
    }

    std::vector<sweep::SweepJob> jobs;
    for (const std::string &k : kernels) {
        svc::SweepSpec spec;
        if (!svc::parseSweepSpec(submitFields("replay", k, true), spec,
                                 err))
            return false;
        for (sweep::SweepJob &j : spec.jobs())
            jobs.push_back(std::move(j));
    }
    std::vector<RunResult> runs(jobs.size());
    std::vector<RunCounters> counters(jobs.size());
    std::vector<SimConfig> configs;
    for (const sweep::SweepJob &j : jobs)
        configs.push_back(j.config);

    int64_t t0 = Tracer::nowNs();
    sweep::parallelFor(jobs.size(), bench_workers, [&](size_t i) {
        runs[i] = tracedRun(runner, jobs[i].workload, jobs[i].config,
                            static_cast<int64_t>(i), counters[i]);
    });
    std::string cacheDir = opts.workDir + "/replay-cache";
    std::error_code ec;
    std::filesystem::remove_all(cacheDir, ec);
    {
        sweep::RunCache cache(cacheDir);
        std::vector<uint64_t> fps;
        for (size_t i = 0; i < jobs.size(); ++i) {
            uint64_t fp = sweep::fingerprintRun(jobs[i].workload,
                                                churn_scale,
                                                jobs[i].config);
            fps.push_back(fp);
            ++out.attempted;
            if (!runs[i].ok ||
                !expected.check(strfmt("%016llx",
                                       static_cast<unsigned long long>(fp)),
                                runSignature(runs[i])))
                ++out.failed;
            std::string line;
            {
                Span s("sweep.record_encode", static_cast<int64_t>(i));
                line = sweep::runRecordLine(runs[i], fp, churn_scale);
            }
            {
                Span s("sweep.record_parse", static_cast<int64_t>(i));
                std::map<std::string, std::string> f;
                RunResult back;
                if (!parseFlatJson(line, f) ||
                    !sweep::runRecordParse(f, back)) {
                    err = "run record did not round-trip";
                    return false;
                }
            }
            Span s("sweep.cache_append", static_cast<int64_t>(i));
            cache.append(fp, churn_scale, runs[i]);
        }
        for (size_t i = 0; i < jobs.size(); ++i) {
            RunResult hit;
            Span s("sweep.cache_lookup", static_cast<int64_t>(i));
            if (!cache.lookup(fps[i], hit)) {
                err = "run cache lost a record";
                return false;
            }
        }
    }
    std::filesystem::remove_all(cacheDir, ec);
    int64_t t1 = Tracer::nowNs();

    MetricList &l = out.layers;
    l.push_back({"workloads.build_ms", buildS * 1e3, "ms"});
    l.push_back({"mdp.prepass_ms", prepassS * 1e3, "ms"});
    l.push_back({"mdp.prepass_minst_per_s", insts / prepassS / 1e6,
                 "Minst/s"});
    addProcessorLayers(l, configs, runs, counters, 1, makespanS, t0, t1);
    std::map<std::string, SpanTotals> totals =
        Tracer::get().totals(t0, t1);
    l.push_back({"sweep.record_encode_us",
                 median(totals["sweep.record_encode"].durS) * 1e6, "us"});
    l.push_back({"sweep.record_parse_us",
                 median(totals["sweep.record_parse"].durS) * 1e6, "us"});
    l.push_back({"sweep.cache_append_ms",
                 median(totals["sweep.cache_append"].durS) * 1e3, "ms"});
    l.push_back({"sweep.cache_lookup_us",
                 median(totals["sweep.cache_lookup"].durS) * 1e6, "us"});
    return true;
}

} // anonymous namespace

Outcome
runDaemonChurn(const Options &opts, Expected &expected)
{
    Outcome out;
    // Every round's daemon appends to one log; keep only this run's.
    std::remove((opts.workDir + "/cwsimd.log").c_str());
    std::vector<ChurnRound> plain, traced;
    auto fail = [](const std::string &err) {
        std::fprintf(stderr, "cwbench: daemon-churn: %s\n", err.c_str());
        std::exit(1);
    };
    // As in-process: a traced run alternates untraced and traced rounds.
    Tracer &tracer = Tracer::get();
    size_t minRounds = opts.trace ? min_traced_rounds : min_rounds;
    double begin = nowSec();
    int64_t t0 = Tracer::nowNs();
    while (plain.size() < minRounds ||
           (opts.trace && traced.size() < minRounds) ||
           nowSec() - begin < opts.seconds) {
        uint64_t index = plain.size() + traced.size();
        bool withTrace = opts.trace && index % 2 == 1;
        ChurnRound r;
        std::string err;
        tracer.enable(withTrace);
        if (!runChurnRound(opts, expected, index, withTrace, r, err))
            fail(err);
        tracer.enable(false);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.setupS.push_back(r.startS);
        (withTrace ? traced : plain).push_back(std::move(r));
        if (opts.recordExpected)
            break;
    }
    int64_t t1 = Tracer::nowNs();
    for (const ChurnRound &r : plain) {
        out.makespanS.push_back(r.makespanS);
        out.cpuS.push_back(r.cpuS);
        if (r.freshWallMs > 0)
            out.simKips.push_back(static_cast<double>(r.freshCommits) /
                                  r.freshWallMs);
    }
    if (!opts.trace || opts.recordExpected)
        return out;

    std::vector<double> tracedMakespan, start, first, queue, gaps, hitFrac,
        busy, longest, overhead;
    double tracedTotal = 0;
    for (const ChurnRound &r : traced) {
        tracedMakespan.push_back(r.makespanS);
        tracedTotal += r.makespanS;
        if (r.fresh > 0)
            overhead.push_back((r.execMsSum - r.freshWallMs) /
                               static_cast<double>(r.fresh));
    }
    for (const std::vector<ChurnRound> *set : {&plain, &traced}) {
        for (const ChurnRound &r : *set) {
            start.push_back(r.startS * 1e3);
            first.push_back(r.firstResultMs);
            queue.insert(queue.end(), r.queueMs.begin(), r.queueMs.end());
            gaps.insert(gaps.end(), r.hitGapUs.begin(), r.hitGapUs.end());
            hitFrac.push_back(r.resubResults > 0
                                  ? r.resubHits / r.resubResults
                                  : 0);
        }
    }
    for (const ChurnRound &r : plain) {
        busy.push_back(r.freshWallMs / 1e3 /
                       (r.makespanS * bench_workers));
        longest.push_back(r.maxWallMs / 1e3);
    }
    double attributed = 0;
    for (const auto &[name, t] : tracer.totals(t0, t1)) {
        if (name.find('.') != std::string::npos)
            attributed += t.selfS;
    }

    std::string err;
    tracer.enable(true);
    if (!replay(opts, expected, median(tracedMakespan), out, err))
        fail(err);
    tracer.enable(false);

    MetricList &l = out.layers;
    l.push_back({"sweep.worker_busy_frac", median(busy), "frac"});
    l.push_back({"sweep.longest_run_s", median(longest), "s"});
    l.push_back({"sweep.isolate_overhead_ms", median(overhead), "ms"});
    l.push_back({"svc.daemon_start_ms", median(start), "ms"});
    l.push_back({"svc.first_result_ms", median(first), "ms"});
    l.push_back({"svc.queue_ms_p50", quantile(queue, 0.5), "ms"});
    l.push_back({"svc.queue_ms_p90", quantile(queue, 0.9), "ms"});
    l.push_back({"svc.hit_result_us", median(gaps), "us"});
    l.push_back({"svc.hit_frac", median(hitFrac), "frac"});
    l.push_back({"bench.trace_overhead_frac",
                 median(tracedMakespan) / median(out.makespanS) - 1,
                 "frac"});
    // One client thread waits on the daemon, so the denominator is the
    // traced makespan itself.
    l.push_back({"bench.unattributed_frac", 1 - attributed / tracedTotal,
                 "frac"});
    return out;
}

} // namespace cwbench
