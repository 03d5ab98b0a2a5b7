/**
 * @file
 * Tests for the --isolate sweep executor: a fault storm of injected
 * host crashes, hangs, and allocation storms across the workload suite
 * must be contained and classified while every surviving run stays
 * bit-identical to a clean serial sweep; and each slot's worker must
 * be reused across jobs, retired after any failure, and reaped with
 * its pool. Lives apart from sweep_test because these tests fork(),
 * which the tsan test shard must not.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "mdp/dep_profile.hh"
#include "obs/depprof.hh"
#include "obs/metrics.hh"
#include "sweep/isolate.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"
#include "sweep/sweep.hh"
#include "workloads/workload.hh"

// RLIMIT_AS-based OOM containment cannot run under AddressSanitizer:
// ASan reserves terabytes of shadow address space up front, so any cap
// small enough to stop the allocation storm kills the child at startup
// instead.
#if defined(__SANITIZE_ADDRESS__)
#define CWSIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CWSIM_ASAN 1
#endif
#endif

namespace cwsim
{
namespace
{

using harness::FailKind;
using harness::RunResult;
using harness::Runner;
using sweep::SweepEngine;
using sweep::SweepOptions;
using sweep::SweepPlan;

struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
        : path(tag + "." + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir() { std::filesystem::remove_all(path); }

    std::string path;
};

SimConfig
baseConfig()
{
    return withPolicy(makeW128Config(), LsqModel::NAS,
                      SpecPolicy::Naive);
}

void
expectSameSimResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.failKind, b.failKind);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.squashedInsts, b.squashedInsts);
    EXPECT_EQ(a.falseDepLoads, b.falseDepLoads);
    EXPECT_EQ(a.falseDepLatency, b.falseDepLatency);
    EXPECT_EQ(a.commitWidth, b.commitWidth);
    for (size_t i = 0; i < obs::num_cpi_causes; ++i)
        EXPECT_EQ(a.cpiSlots[i], b.cpiSlots[i]);
}

/**
 * The flagship containment scenario: every workload runs clean except
 * three singled out for a host crash, a hang, and (outside ASan) an
 * allocation storm, each firing on the first simulated cycle (rate 1).
 */
TEST(IsolateContainment, FaultStormAcrossTheSuite)
{
    const std::vector<std::string> names = workloads::allNames();
    ASSERT_GE(names.size(), 18u);

    const std::string crasher = names[2];
    const std::string hanger = names[7];
#ifndef CWSIM_ASAN
    const std::string alloc = names[11];
#else
    const std::string alloc; // OOM containment untestable under ASan
#endif

    SweepPlan plan;
    for (const std::string &name : names) {
        SimConfig cfg = baseConfig();
        if (name == crasher)
            cfg.check.faults.hostCrashRate = 1.0;
        else if (name == hanger)
            cfg.check.faults.hostHangRate = 1.0;
        else if (!alloc.empty() && name == alloc)
            cfg.check.faults.hostAllocRate = 1.0;
        plan.add(name, cfg);
    }

    // Clean serial reference: same plan, no faults, no isolation.
    SweepPlan cleanPlan;
    for (const std::string &name : names)
        cleanPlan.add(name, baseConfig());
    Runner cleanRunner(3000);
    SweepOptions cleanOpts;
    cleanOpts.jobs = 1;
    cleanOpts.useCache = false;
    auto cleanResults =
        SweepEngine(cleanRunner, cleanOpts).run(cleanPlan);

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 4;
    opts.useCache = false;
    opts.isolate = true;
    opts.timeoutSec = 2.0;
#ifndef CWSIM_ASAN
    // Under ASan any RLIMIT_AS cap kills every child at startup (see
    // the top of this file); the crash and hang cases need none.
    opts.memLimitMb = 2048;
#endif
    opts.retries = 0; // injected faults are deterministic; don't retry
    auto results = SweepEngine(runner, opts).run(plan);

    ASSERT_EQ(results.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        const RunResult &r = results[i];
        if (names[i] == crasher) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::Crash);
            EXPECT_EQ(r.failDetail, "SIGABRT");
            EXPECT_TRUE(r.injectedHostFault);
        } else if (names[i] == hanger) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::Timeout);
            EXPECT_TRUE(r.injectedHostFault);
        } else if (!alloc.empty() && names[i] == alloc) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::Oom);
            EXPECT_TRUE(r.injectedHostFault);
        } else {
            // Survivor: bit-identical to the clean serial sweep.
            EXPECT_TRUE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::None);
            expectSameSimResult(cleanResults[i], r);
        }
    }

    // Every failure was an armed fault doing its job: the FAILED RUNS
    // table lists them, but the campaign still exits 0.
    size_t faulted = alloc.empty() ? 2u : 3u;
    EXPECT_EQ(runner.failures().size(), faulted);
    EXPECT_EQ(sweep::reportFailures(runner), 0u);
}

TEST(IsolateContainment, SimErrorsPassThroughUnchanged)
{
    // An in-process SimError must classify as sim_error with the exact
    // same error text under isolation as without it — and it counts as
    // a real campaign failure (not an injected, contained one).
    SimConfig doomed = baseConfig();
    doomed.maxCycles = 50;

    SweepPlan plan;
    plan.add("129.compress", doomed);

    Runner direct(3000);
    RunResult expected = direct.run("129.compress", doomed);
    ASSERT_FALSE(expected.ok);
    ASSERT_EQ(expected.failKind, FailKind::SimError);

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 1;
    opts.useCache = false;
    opts.isolate = true;
    opts.timeoutSec = 30.0;
    auto results = SweepEngine(runner, opts).run(plan);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].failKind, FailKind::SimError);
    EXPECT_EQ(results[0].error, expected.error);
    EXPECT_EQ(results[0].diagnostic, expected.diagnostic);
    EXPECT_FALSE(results[0].injectedHostFault);
    EXPECT_EQ(sweep::reportFailures(runner), 1u);
}

TEST(IsolateContainment, HostFailuresRetryUpToBudget)
{
    // A deterministic injected crash exhausts the retry budget; the
    // final error text records how many attempts were burned.
    SimConfig cfg = baseConfig();
    cfg.check.faults.hostCrashRate = 1.0;

    SweepPlan plan;
    plan.add("130.li", cfg);

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 1;
    opts.useCache = false;
    opts.isolate = true;
    opts.retries = 2;
    auto results = SweepEngine(runner, opts).run(plan);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].failKind, FailKind::Crash);
    EXPECT_NE(results[0].error.find("after 3 attempt(s)"),
              std::string::npos)
        << results[0].error;
}

TEST(IsolateContainment, IsolatedCleanSweepMatchesDirectSweep)
{
    // No faults armed: isolation must be invisible in the results.
    SweepPlan plan;
    for (const char *name : {"129.compress", "102.swim", "099.go"})
        plan.add(name, baseConfig());

    Runner directRunner(3000);
    SweepOptions directOpts;
    directOpts.jobs = 1;
    directOpts.useCache = false;
    auto direct = SweepEngine(directRunner, directOpts).run(plan);

    Runner isoRunner(3000);
    SweepOptions isoOpts;
    isoOpts.jobs = 2;
    isoOpts.useCache = false;
    isoOpts.isolate = true;
    isoOpts.timeoutSec = 60.0;
    auto isolated = SweepEngine(isoRunner, isoOpts).run(plan);

    ASSERT_EQ(direct.size(), isolated.size());
    for (size_t i = 0; i < direct.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload);
        expectSameSimResult(direct[i], isolated[i]);
    }
    EXPECT_TRUE(isoRunner.failures().empty());
}

TEST(IsolateContainment, DepProfilesSurviveIsolationBitIdentical)
{
    // With profiling on, forked workers inherit the profiling state,
    // write their blocks into the shared file, and ship the dep_*
    // summary back over the result pipe — all of it bit-identical to
    // an inline sweep, across the whole suite under both recovery
    // models.
    SweepPlan plan;
    for (const auto &name : workloads::allNames()) {
        SimConfig squash = baseConfig();
        plan.add(name, squash);
        SimConfig selective = squash;
        selective.mdp.recovery = RecoveryModel::Selective;
        plan.add(name, selective);
    }

    ScratchDir dir("isolate_depprof_test");
    auto guard = [](const std::string &path) {
        obs::DepProfManager::instance().resetForTesting();
        obs::DepProfManager::instance().enable(path);
    };

    guard(dir.path + "/direct.depprof.jsonl");
    Runner directRunner(3000);
    SweepOptions directOpts;
    directOpts.jobs = 1;
    directOpts.useCache = false;
    auto direct = SweepEngine(directRunner, directOpts).run(plan);

    guard(dir.path + "/isolated.depprof.jsonl");
    Runner isoRunner(3000);
    SweepOptions isoOpts;
    isoOpts.jobs = 4;
    isoOpts.useCache = false;
    isoOpts.isolate = true;
    isoOpts.timeoutSec = 60.0;
    auto isolated = SweepEngine(isoRunner, isoOpts).run(plan);
    obs::DepProfManager::instance().resetForTesting();

    ASSERT_EQ(direct.size(), plan.size());
    ASSERT_EQ(isolated.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload);
        expectSameSimResult(direct[i], isolated[i]);
        EXPECT_TRUE(isolated[i].depProfiled);
        EXPECT_EQ(direct[i].depLoads, isolated[i].depLoads);
        EXPECT_EQ(direct[i].depStores, isolated[i].depStores);
        EXPECT_EQ(direct[i].depEdges, isolated[i].depEdges);
        EXPECT_EQ(direct[i].depHotEdges, isolated[i].depHotEdges);
    }
    EXPECT_TRUE(isoRunner.failures().empty());

    // Both profile files validate whole: concurrent forked appenders
    // must land complete blocks, never interleaved lines.
    mdp::DepProfileFile df, isof;
    std::string err;
    ASSERT_TRUE(df.load(dir.path + "/direct.depprof.jsonl", &err))
        << err;
    ASSERT_TRUE(isof.load(dir.path + "/isolated.depprof.jsonl", &err))
        << err;
    EXPECT_TRUE(df.valid());
    EXPECT_TRUE(isof.valid());
    EXPECT_EQ(df.runs().size(), plan.size());
    EXPECT_EQ(isof.runs().size(), plan.size());
}

TEST(IsolateContainment, IsolatedResultsLandInTheRunCache)
{
    // Results produced by forked children must persist like any other:
    // a second, non-isolated sweep is served entirely from the cache.
    ScratchDir dir("isolate_cache_test");
    SweepPlan plan;
    plan.add("124.m88ksim", baseConfig());

    SweepOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir.path;
    opts.isolate = true;
    Runner cold(3000);
    SweepEngine coldEngine(cold, opts);
    auto coldResults = coldEngine.run(plan);
    ASSERT_TRUE(coldResults[0].ok);
    EXPECT_EQ(coldEngine.timingRuns(), 1u);

    opts.isolate = false;
    Runner warm(3000);
    SweepEngine warmEngine(warm, opts);
    auto warmResults = warmEngine.run(plan);
    EXPECT_EQ(warmEngine.timingRuns(), 0u);
    EXPECT_EQ(warmEngine.cacheHits(), 1u);
    expectSameSimResult(coldResults[0], warmResults[0]);
}

using Pool = sweep::IsolatePool;

Pool::Task
makeTask(uint64_t token, const std::string &workload, uint64_t scale,
         const SimConfig &cfg)
{
    Pool::Task t;
    t.token = token;
    t.job = {workload, cfg};
    t.scale = scale;
    t.fp = sweep::fingerprintRun(workload, scale, cfg);
    return t;
}

/** Run @p tasks through @p pool one at a time; each one's Done. */
std::vector<Pool::Done>
runInOrder(Pool &pool, const std::vector<Pool::Task> &tasks)
{
    std::vector<Pool::Done> done;
    for (const Pool::Task &t : tasks) {
        pool.enqueue(t);
        while (!pool.idle()) {
            pool.pump();
            std::vector<struct pollfd> pfds;
            pool.addPollFds(pfds);
            ::poll(pfds.data(), pfds.size(), pool.timeoutMs());
            for (Pool::Done &d : pool.service())
                done.push_back(std::move(d));
        }
    }
    return done;
}

uint64_t
forks(obs::MetricsRegistry &metrics)
{
    return metrics.counter("cwsim_pool_forks_total", "").value();
}

/** Live (or zombie) children of this process, from /proc. */
std::vector<pid_t>
childPids()
{
    std::vector<pid_t> out;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc")) {
        std::ifstream in(entry.path() / "stat");
        std::string stat;
        if (!std::getline(in, stat))
            continue;
        // "pid (comm) state ppid ...": comm may hold spaces.
        size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        char state = 0;
        long ppid = 0;
        if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state,
                        &ppid) == 2 &&
            ppid == ::getpid()) {
            out.push_back(static_cast<pid_t>(
                std::stol(entry.path().filename().string())));
        }
    }
    return out;
}

TEST(IsolateWorkers, OneWorkerRunsEveryJobOfItsSlot)
{
    obs::MetricsRegistry metrics;
    Pool pool(sweep::IsolateOptions{});
    pool.setMetrics(&metrics);
    std::vector<Pool::Task> tasks;
    for (uint64_t scale : {2000u, 3000u}) {
        for (const char *w : {"129.compress", "130.li"}) {
            for (SpecPolicy p : {SpecPolicy::Naive, SpecPolicy::SpecSync}) {
                SimConfig cfg = withPolicy(makeW128Config(),
                                           LsqModel::NAS, p);
                tasks.push_back(makeTask(tasks.size(), w, scale, cfg));
            }
        }
    }
    std::vector<Pool::Done> done = runInOrder(pool, tasks);
    ASSERT_EQ(done.size(), tasks.size());
    EXPECT_EQ(forks(metrics), 1u) << "one worker for the whole slot";

    Runner direct2000(2000), direct3000(3000);
    for (size_t i = 0; i < tasks.size(); ++i) {
        const Pool::Task &t = tasks[i];
        SCOPED_TRACE(t.job.workload + " at " + std::to_string(t.scale));
        Runner &direct = t.scale == 2000 ? direct2000 : direct3000;
        EXPECT_EQ(done[i].token, t.token);
        EXPECT_EQ(done[i].attempts, 1u);
        EXPECT_TRUE(done[i].result.ok) << done[i].result.error;
        expectSameSimResult(direct.run(t.job.workload, t.job.config),
                            done[i].result);
    }
}

TEST(IsolateWorkers, AFailedJobRetiresItsWorker)
{
    // A sim_error leaves the worker able to report but possibly
    // changed, and a crash leaves no worker at all: either way the
    // next job runs on a fresh one and matches a direct run.
    sweep::IsolateOptions opts;
    opts.retries = 0;
    opts.timeoutSec = 60;
    obs::MetricsRegistry metrics;
    Pool pool(opts);
    pool.setMetrics(&metrics);
    SimConfig clean = baseConfig();
    SimConfig doomed = clean;
    doomed.maxCycles = 50; // cannot halt: a SimError
    SimConfig crasher = clean;
    crasher.check.faults.hostCrashRate = 1.0;
    std::vector<Pool::Task> tasks = {
        makeTask(0, "129.compress", 3000, clean),
        makeTask(1, "129.compress", 3000, doomed),
        makeTask(2, "130.li", 3000, clean),
        makeTask(3, "130.li", 3000, crasher),
        makeTask(4, "099.go", 3000, clean),
    };
    std::vector<Pool::Done> done = runInOrder(pool, tasks);
    ASSERT_EQ(done.size(), tasks.size());
    EXPECT_EQ(done[1].result.failKind, FailKind::SimError);
    EXPECT_EQ(done[3].result.failKind, FailKind::Crash);
    EXPECT_EQ(forks(metrics), 3u)
        << "a worker per failure, plus the first";

    Runner direct(3000);
    for (size_t i : {0u, 2u, 4u}) {
        SCOPED_TRACE(tasks[i].job.workload);
        EXPECT_TRUE(done[i].result.ok) << done[i].result.error;
        expectSameSimResult(
            direct.run(tasks[i].job.workload, tasks[i].job.config),
            done[i].result);
    }
}

TEST(IsolateWorkers, IntervalSamplingEndsWithItsJob)
{
    obs::MetricsRegistry metrics;
    Pool pool(sweep::IsolateOptions{});
    pool.setMetrics(&metrics);
    Pool::Task sampled = makeTask(0, "129.compress", 3000, baseConfig());
    sampled.intervalCycles = 2000;
    Pool::Task plain = makeTask(1, "129.compress", 3000, baseConfig());
    std::vector<Pool::Done> done = runInOrder(pool, {sampled, plain});
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(forks(metrics), 1u);
    EXPECT_FALSE(done[0].intervalLines.empty());
    EXPECT_TRUE(done[1].intervalLines.empty());

    // The second job sampled nothing at all: had the first job's
    // setting survived, its sampler would have re-created the first
    // job's (already streamed and deleted) temp file.
    std::vector<pid_t> workers = childPids();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_FALSE(std::filesystem::exists(
        std::string(P_tmpdir) + "/cwsim-iv-" +
        std::to_string(workers[0]) + "-0.jsonl"));
    expectSameSimResult(done[0].result, done[1].result);
}

TEST(IsolateWorkers, AJobThatDoesNotMatchItsFingerprintIsRefused)
{
    sweep::IsolateOptions opts;
    opts.retries = 0;
    obs::MetricsRegistry metrics;
    Pool pool(opts);
    pool.setMetrics(&metrics);
    Pool::Task good = makeTask(0, "129.compress", 3000, baseConfig());
    Pool::Task forged = good;
    forged.token = 1;
    forged.fp ^= 1;
    Pool::Task after = good;
    after.token = 2;
    std::vector<Pool::Done> done =
        runInOrder(pool, {good, forged, after});
    ASSERT_EQ(done.size(), 3u);
    EXPECT_TRUE(done[0].result.ok);
    EXPECT_EQ(done[1].result.failKind, FailKind::Protocol);
    EXPECT_EQ(done[1].result.failDetail, "job line refused");
    EXPECT_TRUE(done[2].result.ok);
    EXPECT_EQ(forks(metrics), 2u) << "the refusing worker is retired";
    expectSameSimResult(done[0].result, done[2].result);
}

TEST(IsolateWorkers, AHungJobIsKilledAtItsDeadline)
{
    sweep::IsolateOptions opts;
    opts.retries = 0;
    opts.timeoutSec = 0.5;
    obs::MetricsRegistry metrics;
    Pool pool(opts);
    pool.setMetrics(&metrics);
    SimConfig hang = baseConfig();
    hang.check.faults.hostHangRate = 1.0;
    std::vector<Pool::Done> done = runInOrder(
        pool, {makeTask(0, "130.li", 3000, hang),
               makeTask(1, "130.li", 3000, baseConfig())});
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].result.failKind, FailKind::Timeout);
    EXPECT_EQ(done[0].result.failDetail, "wall-clock 0.5s");
    EXPECT_TRUE(done[1].result.ok) << done[1].result.error;
    EXPECT_EQ(forks(metrics), 2u);
    Runner direct(3000);
    expectSameSimResult(direct.run("130.li", baseConfig()),
                        done[1].result);
}

#ifndef CWSIM_ASAN
TEST(IsolateWorkers, AWorkerPastHalfItsMemoryCapIsReplaced)
{
    // Reserve address space (not memory) so every worker starts past
    // half of a cap that still leaves its job room to run.
    const size_t hole_bytes = size_t{512} << 20;
    void *hole = ::mmap(nullptr, hole_bytes, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                        0);
    ASSERT_NE(hole, MAP_FAILED);
    uint64_t pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    uint64_t vmMb =
        (pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE))) >> 20;
    ASSERT_GT(vmMb, 512u);

    auto forksUnderCap = [&](uint64_t capMb) {
        sweep::IsolateOptions opts;
        opts.memLimitMb = capMb;
        obs::MetricsRegistry metrics;
        Pool pool(opts);
        pool.setMetrics(&metrics);
        std::vector<Pool::Done> done = runInOrder(
            pool, {makeTask(0, "129.compress", 3000, baseConfig()),
                   makeTask(1, "130.li", 3000, baseConfig()),
                   makeTask(2, "099.go", 3000, baseConfig())});
        EXPECT_EQ(done.size(), 3u);
        for (const Pool::Done &d : done)
            EXPECT_TRUE(d.result.ok) << d.result.error;
        return forks(metrics);
    };
    EXPECT_EQ(forksUnderCap(vmMb + 256), 3u) << "recycled after each job";
    EXPECT_EQ(forksUnderCap(4 * vmMb), 1u) << "well under half: reused";
    ::munmap(hole, hole_bytes);
}
#endif

TEST(IsolateWorkers, NoWorkerOutlivesItsPool)
{
    std::vector<pid_t> workers;
    {
        sweep::IsolateOptions opts;
        opts.slots = 2;
        Pool pool(opts);
        std::vector<Pool::Task> tasks;
        for (const char *w : {"129.compress", "130.li", "099.go"})
            tasks.push_back(makeTask(tasks.size(), w, 3000, baseConfig()));
        for (const Pool::Task &t : tasks)
            pool.enqueue(t);
        size_t finished = 0;
        while (!pool.idle()) {
            pool.pump();
            std::vector<struct pollfd> pfds;
            pool.addPollFds(pfds);
            ::poll(pfds.data(), pfds.size(), pool.timeoutMs());
            finished += pool.service().size();
        }
        EXPECT_EQ(finished, tasks.size());
        workers = childPids();
        EXPECT_EQ(workers.size(), 2u) << "both slots' workers, idle";
    }
    for (pid_t pid : workers) {
        errno = 0;
        EXPECT_EQ(::kill(pid, 0), -1) << "worker " << pid;
        EXPECT_EQ(errno, ESRCH) << "worker " << pid << " not reaped";
    }
}

TEST(RunCacheConcurrency, TwoProcessesAppendWithoutCorruption)
{
    // A parent and a forked child hammer the same cache file through
    // independent RunCache instances (separate open file descriptions,
    // so only O_APPEND atomicity and flock protect the bytes). Every
    // record from both writers must survive, parseable, no torn lines.
    ScratchDir dir("isolate_flock_test");
    constexpr uint64_t per_side = 50;

    auto hammer = [&](uint64_t fpBase) {
        sweep::RunCache cache(dir.path);
        RunResult r;
        r.workload = "129.compress";
        r.config = "NAS/NAV W128";
        // A fat diagnostic makes each record big enough that a torn
        // interleave could not be mistaken for luck.
        r.diagnostic = std::string(2048, 'x');
        for (uint64_t i = 0; i < per_side; ++i) {
            r.cycles = fpBase + i;
            cache.append(fpBase + i, 3000, r);
        }
    };

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        hammer(1'000'000);
        _exit(0);
    }
    hammer(2'000'000);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    sweep::CacheFsckReport rep = sweep::fsckRunCache(dir.path);
    EXPECT_TRUE(rep.clean());
    EXPECT_FALSE(rep.tornTail);
    EXPECT_EQ(rep.valid, 2 * per_side);
    EXPECT_EQ(rep.duplicates, 0u);

    sweep::RunCache reload(dir.path);
    EXPECT_EQ(reload.size(), 2 * per_side);
    RunResult out;
    ASSERT_TRUE(reload.lookup(1'000'000 + 7, out));
    EXPECT_EQ(out.cycles, 1'000'000u + 7);
    ASSERT_TRUE(reload.lookup(2'000'000 + 49, out));
    EXPECT_EQ(out.cycles, 2'000'000u + 49);
}

TEST(ReportFailureTally, InjectedFaultsAreNotCampaignFailures)
{
    Runner runner(3000);

    RunResult injected;
    injected.workload = "130.li";
    injected.config = "NAS/NAV W128";
    injected.ok = false;
    injected.failKind = FailKind::Crash;
    injected.failDetail = "SIGABRT";
    injected.injectedHostFault = true;
    injected.error = "isolated run died: crash(SIGABRT)";
    runner.recordFailure(injected);
    EXPECT_EQ(sweep::reportFailures(runner), 0u);

    RunResult real = injected;
    real.workload = "126.gcc";
    real.injectedHostFault = false;
    runner.recordFailure(real);
    EXPECT_EQ(sweep::reportFailures(runner), 1u);
}

} // anonymous namespace
} // namespace cwsim
