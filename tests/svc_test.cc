/**
 * @file
 * Tests for the cwsimd service subsystem (src/svc): the wire-protocol
 * helpers, sweep-spec parsing (including fingerprint parity with the
 * bench binaries), the multi-tenant scheduler's dedupe / quota /
 * fairness / orphaning rules, and — through a real server on a real
 * Unix socket — the protocol edge cases the daemon must survive:
 * malformed and oversized requests, clients vanishing mid-sweep, two
 * tenants asking for the same work, and a crash-storm of injected
 * host faults that must be contained, classified, and answered
 * without the server ever dying.
 */

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/jsonl.hh"
#include "harness/harness.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"
#include "svc/scheduler.hh"
#include "svc/server.hh"
#include "svc/spec.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace
{

using harness::FailKind;
using harness::RunResult;
using svc::Client;
using svc::RunRef;
using svc::Scheduler;
using svc::SchedulerLimits;
using svc::Server;
using svc::ServerOptions;
using svc::SweepSpec;

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

// ---------------------------------------------------------------------
// Protocol helpers
// ---------------------------------------------------------------------

TEST(SvcProtocol, TakeLineSplitsBufferedLinesAndStripsCr)
{
    std::string buf = "first\r\nsecond\npar", line;
    ASSERT_TRUE(svc::takeLine(buf, line));
    EXPECT_EQ(line, "first");
    ASSERT_TRUE(svc::takeLine(buf, line));
    EXPECT_EQ(line, "second");
    EXPECT_FALSE(svc::takeLine(buf, line)) << "no complete line yet";
    EXPECT_EQ(buf, "par");
    buf += "tial\n";
    ASSERT_TRUE(svc::takeLine(buf, line));
    EXPECT_EQ(line, "partial");
    EXPECT_TRUE(buf.empty());
}

TEST(SvcProtocol, MergeJsonSplicesTwoFlatObjects)
{
    EXPECT_EQ(svc::mergeJson("{\"a\":1}", "{\"b\":\"x\",\"c\":2}"),
              "{\"a\":1,\"b\":\"x\",\"c\":2}");
    // One empty side passes the other through untouched.
    EXPECT_EQ(svc::mergeJson("{\"a\":1}", "{}"), "{\"a\":1}");
    EXPECT_EQ(svc::mergeJson("{}", "{\"a\":1}"), "{\"a\":1}");
}

// ---------------------------------------------------------------------
// Sweep specs
// ---------------------------------------------------------------------

TEST(SvcSpec, Fig2PresetRebuildsTheBenchFingerprints)
{
    SweepSpec spec;
    std::string err;
    std::map<std::string, std::string> req{
        {"cmd", "submit"}, {"id", "s"},      {"preset", "fig2"},
        {"scale", "4000"}, {"filter", "129"}};
    ASSERT_TRUE(svc::parseSweepSpec(req, spec, err)) << err;
    ASSERT_EQ(spec.workloads.size(), 1u);
    EXPECT_EQ(spec.workloads[0], "129.compress");
    ASSERT_EQ(spec.configs.size(), 3u);
    EXPECT_EQ(spec.scale, 4000u);

    // The whole point of reconstructive specs: the daemon must derive
    // the SAME fingerprints the bench binary computes, or the shared
    // cache never hits across the two front ends.
    const SpecPolicy policies[] = {SpecPolicy::No, SpecPolicy::Oracle,
                                   SpecPolicy::Naive};
    for (size_t i = 0; i < 3; ++i) {
        SimConfig bench = withPolicy(makeW128Config(), LsqModel::NAS,
                                     policies[i]);
        EXPECT_EQ(
            sweep::fingerprintRun("129.compress", 4000, spec.configs[i]),
            sweep::fingerprintRun("129.compress", 4000, bench))
            << "config " << i;
    }

    // Jobs expand workload-major.
    auto jobs = spec.jobs();
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[0].config.name(), spec.configs[0].name());
}

TEST(SvcSpec, RejectsBadRequestsWithoutDying)
{
    SweepSpec spec;
    std::string err;

    EXPECT_FALSE(svc::parseSweepSpec({{"cmd", "submit"}}, spec, err));
    EXPECT_EQ(err, "submit requires an id");

    EXPECT_FALSE(svc::parseSweepSpec(
        {{"id", "s"}, {"preset", "fig9"}}, spec, err));
    EXPECT_NE(err.find("unknown preset"), std::string::npos);

    EXPECT_FALSE(svc::parseSweepSpec(
        {{"id", "s"}, {"scale", "12"}}, spec, err));
    EXPECT_NE(err.find("minimum 1000"), std::string::npos);

    // Signed numbers are malformed, not wrapped to 2^64-1.
    EXPECT_FALSE(svc::parseSweepSpec(
        {{"id", "s"}, {"scale", "-1"}}, spec, err));
    EXPECT_NE(err.find("bad scale"), std::string::npos);
    EXPECT_FALSE(svc::parseSweepSpec(
        {{"id", "s"}, {"interval", "-5"}}, spec, err));
    EXPECT_NE(err.find("bad interval"), std::string::npos);

    EXPECT_FALSE(svc::parseSweepSpec(
        {{"id", "s"}, {"workloads", "999.nope"}}, spec, err));
    EXPECT_NE(err.find("unknown workload"), std::string::npos);

    // A bogus config key goes through the trapped fatal() path: the
    // parse fails with a message instead of aborting the process.
    EXPECT_FALSE(svc::parseSweepSpec(
        {{"id", "s"}, {"configs", "mdp.noSuchKnob=1"}}, spec, err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

sweep::SweepJob
jobFor(const std::string &workload)
{
    return {workload, SimConfig{}};
}

TEST(SvcScheduler, SameFingerprintSharesOneUnit)
{
    Scheduler sched;
    EXPECT_TRUE(sched.admit({1, "a", 0, 1}, 0xfeed, jobFor("w"), 2000, 0));
    EXPECT_FALSE(sched.admit({2, "b", 0, 1}, 0xfeed, jobFor("w"), 2000, 0))
        << "second client attaches, no new unit";
    EXPECT_EQ(sched.queued(), 1u);
    EXPECT_TRUE(sched.hasPending(0xfeed));
    EXPECT_EQ(sched.inflight(1), 1u);
    EXPECT_EQ(sched.inflight(2), 1u);

    svc::RunUnit *unit = sched.next();
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(sched.running(), 1u);
    std::vector<RunRef> refs = sched.complete(unit->key);
    ASSERT_EQ(refs.size(), 2u) << "both subscribers notified";
    EXPECT_EQ(refs[0].client, 1u);
    EXPECT_EQ(refs[1].client, 2u);
    EXPECT_FALSE(sched.hasPending(0xfeed));
}

TEST(SvcScheduler, AdmissionControlBoundsQueueAndClient)
{
    SchedulerLimits limits;
    limits.maxQueued = 2;
    limits.maxClientInflight = 3;
    Scheduler sched(limits);
    std::string reason;

    EXPECT_TRUE(sched.canAdmit(1, 2, 2, reason));
    EXPECT_FALSE(sched.canAdmit(1, 3, 3, reason));
    EXPECT_EQ(reason, "queue full");

    // Attach-heavy submits hit the per-client quota even when they
    // create no new units.
    EXPECT_FALSE(sched.canAdmit(1, 0, 4, reason));
    EXPECT_EQ(reason, "quota exceeded");

    sched.admit({1, "a", 0, 2}, 0x1, jobFor("w"), 2000, 0);
    sched.admit({1, "a", 1, 2}, 0x2, jobFor("x"), 2000, 0);
    EXPECT_FALSE(sched.canAdmit(1, 1, 1, reason));
    EXPECT_EQ(reason, "queue full");
    // The quota is per client: client 2 may still attach to the full
    // queue, up to its own cap.
    EXPECT_TRUE(sched.canAdmit(2, 0, 3, reason));
    EXPECT_FALSE(sched.canAdmit(2, 0, 4, reason));
    EXPECT_EQ(reason, "quota exceeded");
}

TEST(SvcScheduler, DispatchRoundRobinsAcrossOwners)
{
    Scheduler sched;
    // Client 1 floods four units before client 2 gets two in.
    for (uint64_t i = 0; i < 4; ++i)
        sched.admit({1, "a", i, 4}, 0x10 + i, jobFor("w"), 2000, 0);
    for (uint64_t i = 0; i < 2; ++i)
        sched.admit({2, "b", i, 2}, 0x20 + i, jobFor("x"), 2000, 0);

    std::vector<uint64_t> order;
    for (svc::RunUnit *u = sched.next(); u; u = sched.next())
        order.push_back(u->fp);
    ASSERT_EQ(order.size(), 6u);
    // Fair interleave while both have work, then the flood drains.
    EXPECT_EQ(order[0], 0x10u);
    EXPECT_EQ(order[1], 0x20u);
    EXPECT_EQ(order[2], 0x11u);
    EXPECT_EQ(order[3], 0x21u);
    EXPECT_EQ(order[4], 0x12u);
    EXPECT_EQ(order[5], 0x13u);
}

TEST(SvcScheduler, DisconnectOrphansOwnedUnitsInsteadOfCancelling)
{
    Scheduler sched;
    sched.admit({1, "a", 0, 2}, 0x1, jobFor("w"), 2000, 0);
    sched.admit({1, "a", 1, 2}, 0x2, jobFor("x"), 2000, 0);
    sched.admit({2, "b", 0, 1}, 0x1, jobFor("w"), 2000, 0); // attach

    sched.dropClient(1);
    EXPECT_EQ(sched.inflight(1), 0u);
    EXPECT_EQ(sched.queued(), 2u)
        << "orphaned units stay admitted: their results belong to the "
           "shared corpus";

    // 0x1 still carries client 2's ref; 0x2 runs for nobody but the
    // cache.
    svc::RunUnit *first = sched.next();
    ASSERT_NE(first, nullptr);
    svc::RunUnit *second = sched.next();
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(sched.next(), nullptr);
    size_t totalRefs = sched.complete(first->key).size() +
                       sched.complete(second->key).size();
    EXPECT_EQ(totalRefs, 1u) << "only client 2's subscription survives";
}

// ---------------------------------------------------------------------
// The server on a real socket
// ---------------------------------------------------------------------

/** A live server on its own thread, plus the scratch state it needs. */
struct LiveServer
{
    explicit LiveServer(const std::string &tag, ServerOptions base = {})
        : dir(tag), opts(std::move(base))
    {
        // sun_path is ~108 bytes; keep sockets in /tmp, not the cwd.
        opts.socketPath =
            "/tmp/" + tag + "." + std::to_string(::getpid()) + ".sock";
        opts.cacheDir = dir.path;
        if (opts.defaultScale == 0)
            opts.defaultScale = 2000;
        server = std::make_unique<Server>(opts);
        std::string err;
        started = server->start(&err);
        EXPECT_TRUE(started) << err;
        if (started)
            thread = std::thread([this] { exitCode = server->run(); });
    }

    ~LiveServer()
    {
        if (thread.joinable()) {
            server->requestStop();
            thread.join();
        }
    }

    /** Drain via requestStop and return run()'s exit code. */
    int
    stopAndJoin()
    {
        server->requestStop();
        thread.join();
        return exitCode;
    }

    Client
    connect()
    {
        Client c;
        std::string err;
        EXPECT_TRUE(c.connectUnix(opts.socketPath, &err)) << err;
        return c;
    }

    ScratchDir dir;
    ServerOptions opts;
    std::unique_ptr<Server> server;
    std::thread thread;
    bool started = false;
    int exitCode = -1;
};

using Event = std::map<std::string, std::string>;

std::string
ev(const Event &event, const char *key)
{
    auto it = event.find(key);
    return it == event.end() ? std::string() : it->second;
}

double
statNum(const Event &event, const char *key)
{
    return std::strtod(ev(event, key).c_str(), nullptr);
}

/** Read events until one of kind @p kind arrives (fails the test on EOF). */
bool
awaitEvent(Client &client, const std::string &kind, Event &out)
{
    std::string err;
    while (client.nextEvent(out, &err)) {
        if (ev(out, "ev") == kind)
            return true;
    }
    ADD_FAILURE() << "connection ended awaiting '" << kind
                  << "' event: " << err;
    return false;
}

TEST(SvcServer, HandshakeAndLivenessProbes)
{
    LiveServer live("svc_hello");
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"hello\"}", &err)) << err;
    Event event;
    ASSERT_TRUE(awaitEvent(c, "hello", event));
    EXPECT_EQ(ev(event, "proto"),
              std::to_string(svc::protocol_version));
    EXPECT_EQ(ev(event, "scale"), "2000");
    EXPECT_EQ(event.count("isolate"), 0u) << "one executor, no flag";
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"ping\"}", &err)) << err;
    ASSERT_TRUE(awaitEvent(c, "pong", event));
}

TEST(SvcServer, MalformedLineCostsOneErrorEventNotTheSession)
{
    LiveServer live("svc_malformed");
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine("this is not json", &err));
    Event event;
    ASSERT_TRUE(awaitEvent(c, "error", event));
    EXPECT_EQ(ev(event, "reason"), "malformed request");
    // The session survives: the next request still answers.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"ping\"}", &err));
    ASSERT_TRUE(awaitEvent(c, "pong", event));
    // An unknown cmd is also a per-request error, not a disconnect.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"frobnicate\"}", &err));
    ASSERT_TRUE(awaitEvent(c, "error", event));
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"ping\"}", &err));
    ASSERT_TRUE(awaitEvent(c, "pong", event));
}

TEST(SvcServer, OversizedLineClosesTheSessionButNotTheServer)
{
    LiveServer live("svc_oversized");
    ASSERT_TRUE(live.started);
    Client bad = live.connect();
    std::string err;
    std::string huge(svc::max_request_line + 64, 'x');
    ASSERT_TRUE(bad.sendLine(huge, &err));
    Event event;
    ASSERT_TRUE(awaitEvent(bad, "error", event));
    EXPECT_EQ(ev(event, "reason"), "request line too long");
    // Then EOF: an unbounded line is a protocol violation.
    EXPECT_FALSE(bad.nextEvent(event, &err));
    EXPECT_TRUE(err.empty()) << "clean close, not an error: " << err;
    // A fresh connection is unaffected.
    Client good = live.connect();
    ASSERT_TRUE(good.sendLine("{\"cmd\":\"ping\"}", &err));
    ASSERT_TRUE(awaitEvent(good, "pong", event));
}

TEST(SvcServer, SubmittedRunMatchesADirectRunnerBitForBit)
{
    LiveServer live("svc_parity");
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"p\","
                           "\"workloads\":\"129.compress\","
                           "\"configs\":\"mdp.lsqModel=NAS,"
                           "mdp.policy=NAV\"}",
                           &err));
    Event event;
    ASSERT_TRUE(awaitEvent(c, "accepted", event));
    EXPECT_EQ(ev(event, "runs"), "1");
    ASSERT_TRUE(awaitEvent(c, "run", event));
    RunResult viaDaemon;
    ASSERT_TRUE(sweep::runRecordParse(event, viaDaemon));

    harness::Runner runner(2000);
    RunResult direct = runner.run(
        "129.compress",
        withPolicy(makeW128Config(), LsqModel::NAS, SpecPolicy::Naive));

    EXPECT_TRUE(viaDaemon.ok);
    EXPECT_EQ(viaDaemon.workload, direct.workload);
    EXPECT_EQ(viaDaemon.config, direct.config);
    EXPECT_EQ(viaDaemon.cycles, direct.cycles);
    EXPECT_EQ(viaDaemon.commits, direct.commits);
    EXPECT_EQ(viaDaemon.violations, direct.violations);
    EXPECT_EQ(viaDaemon.replays, direct.replays);
    EXPECT_EQ(viaDaemon.branchMispredicts, direct.branchMispredicts);
    EXPECT_EQ(viaDaemon.commitWidth, direct.commitWidth);
    EXPECT_EQ(viaDaemon.cpiSlots, direct.cpiSlots)
        << "CPI stacks travel with the record";

    ASSERT_TRUE(awaitEvent(c, "done", event));
    EXPECT_EQ(ev(event, "runs"), "1");
    EXPECT_EQ(ev(event, "failed"), "0");
}

TEST(SvcServer, SecondClientWithTheSameSpecIsServedFromTheCache)
{
    LiveServer live("svc_cachehit");
    ASSERT_TRUE(live.started);
    const std::string submit =
        "{\"cmd\":\"submit\",\"id\":\"s\","
        "\"workloads\":\"129.compress,130.li\"}";
    std::string err;
    Event event;
    {
        Client first = live.connect();
        ASSERT_TRUE(first.sendLine(submit, &err));
        ASSERT_TRUE(awaitEvent(first, "accepted", event));
        EXPECT_EQ(ev(event, "cached"), "0");
        ASSERT_TRUE(awaitEvent(first, "done", event));
    }
    Client second = live.connect();
    ASSERT_TRUE(second.sendLine(submit, &err));
    ASSERT_TRUE(awaitEvent(second, "accepted", event));
    EXPECT_EQ(ev(event, "cached"), "2")
        << "every run must come out of the shared corpus";
    EXPECT_EQ(ev(event, "queued"), "0");
    ASSERT_TRUE(awaitEvent(second, "run", event));
    EXPECT_EQ(ev(event, "cache_hit"), "true");
    ASSERT_TRUE(awaitEvent(second, "done", event));
    EXPECT_EQ(ev(event, "failed"), "0");
}

TEST(SvcServer, QuotaRejectsAreAllOrNothing)
{
    ServerOptions opts;
    opts.limits.maxClientInflight = 1;
    LiveServer live("svc_quota", opts);
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    // Two runs against a one-run quota: the whole submit bounces and
    // nothing is admitted or partially delivered.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"q\","
                           "\"workloads\":\"129.compress,130.li\"}",
                           &err));
    Event event;
    ASSERT_TRUE(awaitEvent(c, "rejected", event));
    EXPECT_EQ(ev(event, "reason"), "quota exceeded");
    // A submit that fits the quota still works on the same session.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"q2\","
                           "\"workloads\":\"129.compress\"}",
                           &err));
    ASSERT_TRUE(awaitEvent(c, "accepted", event));
    ASSERT_TRUE(awaitEvent(c, "done", event));
    EXPECT_EQ(ev(event, "failed"), "0");
}

TEST(SvcServer, DisconnectMidSweepOrphansTheWorkIntoTheCorpus)
{
    LiveServer live("svc_orphan");
    ASSERT_TRUE(live.started);
    std::string err;
    Event event;
    {
        // Submit, see the accept, then vanish without reading results.
        Client ghost = live.connect();
        ASSERT_TRUE(ghost.sendLine("{\"cmd\":\"submit\",\"id\":\"g\","
                                   "\"workloads\":\"129.compress\"}",
                                   &err));
        ASSERT_TRUE(awaitEvent(ghost, "accepted", event));
        ghost.close();
    }
    // The orphaned run must still execute and land in the shared
    // cache: a later identical submit is served without re-running.
    // (Poll until the orphan finishes — there is no client left to
    // stream its completion to.)
    Client c = live.connect();
    for (int attempt = 0;; ++attempt) {
        ASSERT_TRUE(c.sendLine("{\"cmd\":\"stats\"}", &err));
        ASSERT_TRUE(awaitEvent(c, "stats", event));
        if (statNum(event, "cwsimd_cache_size") == 1.0)
            break;
        ASSERT_LT(attempt, 200) << "orphaned run never completed";
        ::usleep(10'000);
    }
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"after\","
                           "\"workloads\":\"129.compress\"}",
                           &err));
    ASSERT_TRUE(awaitEvent(c, "accepted", event));
    EXPECT_EQ(ev(event, "cached"), "1");
    ASSERT_TRUE(awaitEvent(c, "done", event));
}

TEST(SvcServer, ShutdownDrainsAndSaysGoodbye)
{
    LiveServer live("svc_shutdown");
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"last\","
                           "\"workloads\":\"129.compress\"}",
                           &err));
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"shutdown\"}", &err));
    // The admitted run still completes and is delivered before the
    // farewell.
    Event event;
    ASSERT_TRUE(awaitEvent(c, "done", event));
    EXPECT_EQ(ev(event, "failed"), "0");
    ASSERT_TRUE(awaitEvent(c, "shutdown", event));
    EXPECT_FALSE(c.nextEvent(event, &err)) << "EOF after the farewell";
    live.thread.join();
    EXPECT_EQ(live.exitCode, 0);
    EXPECT_FALSE(std::filesystem::exists(live.opts.socketPath))
        << "socket unlinked on clean drain";
}

TEST(SvcServer, DrainingServerRejectsNewSubmits)
{
    LiveServer live("svc_draining");
    ASSERT_TRUE(live.started);
    Client a = live.connect();
    Client b = live.connect();
    std::string err;
    Event event;
    // Enough queued work that the drain stays open while session b
    // talks to the server (the one slot runs one unit at a time).
    ASSERT_TRUE(a.sendLine("{\"cmd\":\"submit\",\"id\":\"hold\"}",
                           &err));
    ASSERT_TRUE(awaitEvent(a, "accepted", event));
    ASSERT_TRUE(a.sendLine("{\"cmd\":\"shutdown\"}", &err));
    // Wait until the drain has actually begun — b's probes are still
    // answered, because existing sessions live through a drain.
    do {
        ASSERT_TRUE(b.sendLine("{\"cmd\":\"stats\"}", &err));
        ASSERT_TRUE(awaitEvent(b, "stats", event));
    } while (ev(event, "draining") != "true");
    ASSERT_GT(statNum(event, "cwsimd_queue_depth") +
                  statNum(event, "cwsimd_runs_running"),
              0.0)
        << "the hold sweep must still be in flight for the rejection "
           "below to be meaningful";
    // New work bounces: a draining server takes no new submits.
    ASSERT_TRUE(b.sendLine("{\"cmd\":\"submit\",\"id\":\"late\","
                           "\"workloads\":\"129.compress\"}",
                           &err));
    ASSERT_TRUE(awaitEvent(b, "rejected", event));
    EXPECT_EQ(ev(event, "reason"), "draining");
    // The admitted sweep still completes before the farewell.
    ASSERT_TRUE(awaitEvent(a, "done", event));
    EXPECT_EQ(ev(event, "failed"), "0");
    ASSERT_TRUE(awaitEvent(b, "shutdown", event));
    live.thread.join();
    EXPECT_EQ(live.exitCode, 0);
}

/**
 * The acceptance gauntlet: a crash-storm client (every run armed with
 * a host-crash fault) against the ISOLATED executor. Every death must
 * be classified into the failure taxonomy, reported as injected, and
 * the server must keep serving afterwards.
 */
TEST(SvcServer, IsolatedExecutorContainsACrashStorm)
{
    ServerOptions opts;
    opts.slots = 2;
    opts.retries = 0; // every armed run dies deterministically; don't retry
    opts.timeoutSec = 60;
    LiveServer live("svc_storm", opts);
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine(
        "{\"cmd\":\"submit\",\"id\":\"storm\","
        "\"workloads\":\"129.compress,130.li\","
        "\"set\":\"check.faults.hostCrashRate=1.0\"}",
        &err));
    Event event;
    ASSERT_TRUE(awaitEvent(c, "accepted", event));
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(awaitEvent(c, "run", event));
        RunResult r;
        ASSERT_TRUE(sweep::runRecordParse(event, r));
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.failKind, FailKind::Crash) << r.failLabel();
        EXPECT_TRUE(r.injectedHostFault)
            << "armed faults must be tagged injected";
    }
    ASSERT_TRUE(awaitEvent(c, "done", event));
    EXPECT_EQ(ev(event, "failed"), "0")
        << "injected deaths are contained, not campaign failures";
    EXPECT_EQ(ev(event, "injected"), "2");
    // The server shrugged it all off.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"ping\"}", &err));
    ASSERT_TRUE(awaitEvent(c, "pong", event));
}

TEST(SvcServer, IsolatedExecutorStreamsIntervalSamples)
{
    ServerOptions opts;
    opts.slots = 1;
    opts.timeoutSec = 60;
    LiveServer live("svc_interval", opts);
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"iv\","
                           "\"workloads\":\"129.compress\","
                           "\"interval\":\"2000\"}",
                           &err));
    Event event;
    ASSERT_TRUE(awaitEvent(c, "accepted", event));
    size_t samples = 0;
    for (;;) {
        ASSERT_TRUE(c.nextEvent(event, &err)) << err;
        const std::string kind = ev(event, "ev");
        if (kind == "interval") {
            ++samples;
            EXPECT_EQ(ev(event, "id"), "iv");
            EXPECT_FALSE(ev(event, "cycle").empty())
                << "sample payload rides in the event";
        } else if (kind == "run") {
            break;
        }
    }
    EXPECT_GT(samples, 0u) << "interval samples precede the record";
    ASSERT_TRUE(awaitEvent(c, "done", event));
    EXPECT_EQ(ev(event, "failed"), "0");
}

TEST(SvcServer, StatsVerbCarriesTheMetricsRegistrySnapshot)
{
    LiveServer live("svc_stats");
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    Event event;
    // A fresh daemon already exposes the registry in the stats event,
    // with everything at zero — including pre-registered label series
    // that have never fired. The registry is the only copy of each
    // counter: the protocol-v1 duplicates are gone.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"stats\"}", &err));
    ASSERT_TRUE(awaitEvent(c, "stats", event));
    EXPECT_EQ(ev(event, "slots"), "1");
    EXPECT_EQ(ev(event, "draining"), "false");
    for (const char *gone : {"clients", "total_clients", "executed",
                             "cache_hits", "deduped", "queued",
                             "running", "cache_size"}) {
        EXPECT_EQ(event.count(gone), 0u) << gone;
    }
    EXPECT_EQ(statNum(event, "cwsimd_cache_size"), 0.0);
    EXPECT_EQ(ev(event, "cwsimd_runs_executed_total"), "0");
    EXPECT_EQ(ev(event, "cwsimd_run_results_total_crash"), "0")
        << "zero-count series still export";
    EXPECT_EQ(statNum(event, "cwsimd_sessions_open"), 1.0);

    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"m\","
                           "\"workloads\":\"129.compress,130.li\"}",
                           &err));
    ASSERT_TRUE(awaitEvent(c, "done", event));
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"stats\"}", &err));
    ASSERT_TRUE(awaitEvent(c, "stats", event));
    EXPECT_EQ(ev(event, "cwsimd_submits_accepted_total"), "1");
    EXPECT_EQ(ev(event, "cwsimd_runs_admitted_total"), "2");
    EXPECT_EQ(ev(event, "cwsimd_runs_executed_total"), "2");
    EXPECT_EQ(ev(event, "cwsimd_run_results_total_none"), "2");
    EXPECT_EQ(ev(event, "cwsimd_run_latency_seconds_count"), "2");
    EXPECT_EQ(ev(event, "cwsimd_queue_wait_seconds_count"), "2");
    EXPECT_EQ(statNum(event, "cwsimd_queue_depth"), 0.0);
    EXPECT_EQ(statNum(event, "cwsimd_runs_running"), 0.0);
    EXPECT_EQ(statNum(event, "cwsimd_cache_size"), 2.0);
    EXPECT_GT(statNum(event, "cwsimd_uptime_ms"), 0.0);

    // Resubmitting the same spec is served from the corpus: the cache
    // hit counter moves, the executed counter must not.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"m2\","
                           "\"workloads\":\"129.compress,130.li\"}",
                           &err));
    ASSERT_TRUE(awaitEvent(c, "done", event));
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"stats\"}", &err));
    ASSERT_TRUE(awaitEvent(c, "stats", event));
    EXPECT_EQ(ev(event, "cwsimd_cache_hits_total"), "2");
    EXPECT_EQ(ev(event, "cwsimd_runs_executed_total"), "2");
    EXPECT_EQ(ev(event, "cwsimd_run_results_total_none"), "2");
}

TEST(SvcServer, RunRecordsCarryTheQueueWaitSplit)
{
    LiveServer live("svc_queuems");
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"w\","
                           "\"workloads\":\"129.compress\"}",
                           &err));
    Event event;
    ASSERT_TRUE(awaitEvent(c, "run", event));
    // The wait/execute split travels in the record; a freshly executed
    // run spent a non-negative (tiny, here) time admitted-but-waiting.
    ASSERT_TRUE(event.count("queue_ms")) << "queue_ms field missing";
    EXPECT_GE(statNum(event, "queue_ms"), 0.0);
    RunResult r;
    ASSERT_TRUE(sweep::runRecordParse(event, r));
    EXPECT_GE(r.queueMs, 0.0);
    ASSERT_TRUE(awaitEvent(c, "done", event));

    // A cache-served copy of the same run reports zero wait: nothing
    // was queued the second time around.
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"w2\","
                           "\"workloads\":\"129.compress\"}",
                           &err));
    ASSERT_TRUE(awaitEvent(c, "run", event));
    EXPECT_EQ(ev(event, "cache_hit"), "true");
    EXPECT_EQ(statNum(event, "queue_ms"), 0.0);
    ASSERT_TRUE(awaitEvent(c, "done", event));
}

TEST(SvcServer, TraceEventsFileIsValidAndCoversEveryExecutedRun)
{
    ServerOptions opts;
    const std::string tracePath =
        "/tmp/svc_trace." + std::to_string(::getpid()) + ".json";
    opts.traceEventsPath = tracePath;
    LiveServer live("svc_trace", opts);
    ASSERT_TRUE(live.started);
    {
        Client c = live.connect();
        std::string err;
        Event event;
        ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"t\","
                               "\"workloads\":\"129.compress,130.li\"}",
                               &err));
        ASSERT_TRUE(awaitEvent(c, "done", event));
        // Cache-served resubmit: instants on the client track, no new
        // exec spans.
        ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"t2\","
                               "\"workloads\":\"129.compress,130.li\"}",
                               &err));
        ASSERT_TRUE(awaitEvent(c, "done", event));
    }
    EXPECT_EQ(live.stopAndJoin(), 0) << "drain closes the JSON array";

    std::ifstream in(tracePath);
    ASSERT_TRUE(in.is_open()) << tracePath;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::remove(tracePath.c_str());

    ASSERT_GE(lines.size(), 4u);
    EXPECT_EQ(lines.front(), "[");
    EXPECT_EQ(lines.back(), "]");

    // One event object per interior line: strip the trailing comma and
    // the one nested "args" object, then the flat-JSON parser validates
    // the rest of each event.
    struct Span
    {
        std::string name, cat;
        double pid, tid, ts, dur;
    };
    std::vector<Span> spans;
    size_t instants = 0;
    for (size_t i = 1; i + 1 < lines.size(); ++i) {
        std::string body = lines[i];
        if (!body.empty() && body.back() == ',')
            body.pop_back();
        size_t at = body.find(",\"args\":{");
        if (at != std::string::npos) {
            size_t close = body.rfind('}', body.size() - 2);
            ASSERT_NE(close, std::string::npos) << lines[i];
            body = body.substr(0, at) + body.substr(close + 1);
        }
        Event evf;
        ASSERT_TRUE(parseFlatJson(body, evf)) << lines[i];
        ASSERT_TRUE(evf.count("ph")) << body;
        if (ev(evf, "ph") == "X") {
            Span s{ev(evf, "name"), ev(evf, "cat"),
                   statNum(evf, "pid"), statNum(evf, "tid"),
                   statNum(evf, "ts"), statNum(evf, "dur")};
            EXPECT_GE(s.ts, 0.0) << body;
            EXPECT_GE(s.dur, 0.0) << "negative duration: " << body;
            spans.push_back(s);
        } else if (ev(evf, "ph") == "i") {
            ++instants;
        }
    }

    size_t execSpans = 0, runSpans = 0, queuedSpans = 0;
    for (const Span &s : spans) {
        if (s.cat == "exec")
            ++execSpans;
        else if (s.cat == "run")
            ++runSpans;
        else if (s.cat == "queue")
            ++queuedSpans;
    }
    EXPECT_EQ(execSpans, 2u) << "one exec span per executed run";
    EXPECT_EQ(runSpans, 2u) << "one lifecycle span per delivered run";
    EXPECT_EQ(queuedSpans, 2u);
    EXPECT_EQ(instants, 2u) << "one cache_hit instant per cached run";

    // Every queue-wait span nests inside a lifecycle span on the same
    // client track.
    for (const Span &q : spans) {
        if (q.cat != "queue")
            continue;
        bool nested = false;
        for (const Span &r : spans) {
            if (r.cat == "run" && r.pid == q.pid && r.tid == q.tid &&
                r.ts <= q.ts && r.ts + r.dur >= q.ts + q.dur) {
                nested = true;
                break;
            }
        }
        EXPECT_TRUE(nested) << "orphan queued span at ts " << q.ts;
    }
}

TEST(SvcServer, CorpusStreamsEveryCachedRecord)
{
    LiveServer live("svc_corpus");
    ASSERT_TRUE(live.started);
    Client c = live.connect();
    std::string err;
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"submit\",\"id\":\"seed\","
                           "\"workloads\":\"129.compress,130.li\"}",
                           &err));
    Event event;
    ASSERT_TRUE(awaitEvent(c, "done", event));
    ASSERT_TRUE(c.sendLine("{\"cmd\":\"corpus\"}", &err));
    size_t records = 0;
    for (;;) {
        ASSERT_TRUE(c.nextEvent(event, &err)) << err;
        const std::string kind = ev(event, "ev");
        if (kind == "corpus_record") {
            RunResult r;
            EXPECT_TRUE(sweep::runRecordParse(event, r));
            ++records;
        } else if (kind == "corpus_done") {
            EXPECT_EQ(ev(event, "count"), "2");
            break;
        }
    }
    EXPECT_EQ(records, 2u);
}

} // anonymous namespace
} // namespace cwsim
