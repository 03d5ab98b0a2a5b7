/**
 * @file
 * Tests for the parallel sweep engine: serial-vs-parallel determinism
 * over the whole workload suite, the on-disk run cache (hits, stale
 * fingerprints, poisoned entries), JSONL export, and the JSON-lines
 * helpers underneath it all.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "mdp/dep_profile.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "sweep/bench_cli.hh"
#include "sweep/run_cache.hh"
#include "sweep/sweep.hh"

namespace cwsim
{
namespace
{

using harness::RunResult;
using harness::Runner;
using sweep::SweepEngine;
using sweep::SweepOptions;
using sweep::SweepPlan;

/**
 * A fresh scratch directory under the test's working directory
 * (inside the build tree), removed on destruction.
 */
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

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.failKind, b.failKind);
    EXPECT_EQ(a.failDetail, b.failDetail);
    EXPECT_EQ(a.injectedHostFault, b.injectedHostFault);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.selectiveRecoveries, b.selectiveRecoveries);
    EXPECT_EQ(a.selectiveFallbacks, b.selectiveFallbacks);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.squashedInsts, b.squashedInsts);
    EXPECT_EQ(a.falseDepLoads, b.falseDepLoads);
    EXPECT_EQ(a.falseDepLatency, b.falseDepLatency);
    EXPECT_EQ(a.injectedViolations, b.injectedViolations);
    EXPECT_EQ(a.commitWidth, b.commitWidth);
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        EXPECT_EQ(a.cpiSlots[i], b.cpiSlots[i])
            << obs::toString(obs::CpiCause(i));
    }
}

/** All 18 workloads under NAV with both recovery models. */
SweepPlan
fullSuitePlan()
{
    SweepPlan plan;
    for (const auto &name : workloads::allNames()) {
        SimConfig squash = withPolicy(makeW128Config(), LsqModel::NAS,
                                      SpecPolicy::Naive);
        plan.add(name, squash);
        SimConfig selective = squash;
        selective.mdp.recovery = RecoveryModel::Selective;
        plan.add(name, selective);
    }
    return plan;
}

TEST(SweepDeterminism, SerialVsParallelFullSuite)
{
    SweepPlan plan = fullSuitePlan();

    Runner serialRunner(4000);
    SweepOptions serialOpts;
    serialOpts.jobs = 1;
    serialOpts.useCache = false;
    SweepEngine serial(serialRunner, serialOpts);
    auto serialResults = serial.run(plan);

    Runner parallelRunner(4000);
    SweepOptions parallelOpts;
    parallelOpts.jobs = 8;
    parallelOpts.useCache = false;
    SweepEngine parallel(parallelRunner, parallelOpts);
    auto parallelResults = parallel.run(plan);

    ASSERT_EQ(serialResults.size(), plan.size());
    ASSERT_EQ(parallelResults.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload + " / " +
                     plan.jobs()[i].config.name());
        expectSameResult(serialResults[i], parallelResults[i]);
    }
    EXPECT_TRUE(serialRunner.failures().empty());
    EXPECT_TRUE(parallelRunner.failures().empty());
}

/** RAII: route dependence profiling to @p path, reset on the way out. */
struct DepProfGuard
{
    explicit DepProfGuard(const std::string &path)
    {
        obs::DepProfManager::instance().resetForTesting();
        obs::DepProfManager::instance().enable(path);
    }

    ~DepProfGuard() { obs::DepProfManager::instance().resetForTesting(); }
};

TEST(DepProfiling, EnabledRunIsBitIdenticalToDisabled)
{
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);

    obs::DepProfManager::instance().resetForTesting();
    Runner off(3000);
    RunResult plain = off.run("129.compress", cfg);
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_FALSE(plain.depProfiled);
    EXPECT_EQ(plain.depLoads, 0u);
    EXPECT_TRUE(plain.depHotEdges.empty());

    ScratchDir dir("depprof_identity_test");
    std::string path = dir.path + "/one.depprof.jsonl";
    RunResult profiled;
    {
        DepProfGuard guard(path);
        Runner on(3000);
        profiled = on.run("129.compress", cfg);
    }
    ASSERT_TRUE(profiled.ok) << profiled.error;

    // The observatory contract: profiling only observes, so every
    // simulated stat is bit-identical either way (expectSameResult
    // covers them all; the dep_* summary is host-side by design).
    expectSameResult(plain, profiled);
    EXPECT_TRUE(profiled.depProfiled);
    EXPECT_GT(profiled.depLoads, 0u);
    EXPECT_GT(profiled.depStores, 0u);

    // The written block validates and agrees with the summary.
    mdp::DepProfileFile file;
    std::string err;
    ASSERT_TRUE(file.load(path, &err)) << err;
    EXPECT_TRUE(file.valid());
    ASSERT_EQ(file.runs().size(), 1u);
    const mdp::DepProfileRun *run =
        file.findRun("129.compress " + cfg.name());
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->sim, "proc");
    EXPECT_EQ(run->loads.size(), profiled.depLoads);
    EXPECT_EQ(run->stores.size(), profiled.depStores);
    EXPECT_EQ(run->edges.size(), profiled.depEdges);
}

TEST(DepProfiling, SerialVsParallelDepSummariesMatchFullSuite)
{
    SweepPlan plan = fullSuitePlan();
    ScratchDir dir("depprof_parallel_test");

    std::vector<RunResult> serial;
    {
        DepProfGuard guard(dir.path + "/serial.depprof.jsonl");
        Runner runner(4000);
        SweepOptions opts;
        opts.jobs = 1;
        opts.useCache = false;
        serial = SweepEngine(runner, opts).run(plan);
    }
    std::vector<RunResult> parallel;
    {
        DepProfGuard guard(dir.path + "/parallel.depprof.jsonl");
        Runner runner(4000);
        SweepOptions opts;
        opts.jobs = 8;
        opts.useCache = false;
        parallel = SweepEngine(runner, opts).run(plan);
    }

    ASSERT_EQ(serial.size(), plan.size());
    ASSERT_EQ(parallel.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload + " / " +
                     plan.jobs()[i].config.name());
        expectSameResult(serial[i], parallel[i]);
        EXPECT_TRUE(serial[i].depProfiled);
        EXPECT_EQ(serial[i].depLoads, parallel[i].depLoads);
        EXPECT_EQ(serial[i].depStores, parallel[i].depStores);
        EXPECT_EQ(serial[i].depEdges, parallel[i].depEdges);
        EXPECT_EQ(serial[i].depHotEdges, parallel[i].depHotEdges);
    }

    // Both profile files validate whole — the block writer's mutex
    // means concurrent workers never interleave lines — and carry one
    // block per run (order may differ; content identity is already
    // proven by the dep_hot_edges comparison above).
    mdp::DepProfileFile sf, pf;
    std::string err;
    ASSERT_TRUE(sf.load(dir.path + "/serial.depprof.jsonl", &err))
        << err;
    ASSERT_TRUE(pf.load(dir.path + "/parallel.depprof.jsonl", &err))
        << err;
    EXPECT_TRUE(sf.valid());
    EXPECT_TRUE(pf.valid());
    EXPECT_EQ(sf.runs().size(), plan.size());
    EXPECT_EQ(pf.runs().size(), plan.size());
}

TEST(SweepEngine, ResultsComeBackInSpecOrder)
{
    SweepPlan plan;
    const std::vector<std::string> names = {"129.compress", "102.swim",
                                            "099.go", "130.li"};
    for (const auto &name : names) {
        plan.add(name, withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::Naive));
    }

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 4;
    opts.useCache = false;
    SweepEngine engine(runner, opts);
    auto results = engine.run(plan);

    ASSERT_EQ(results.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(results[i].workload, names[i]);
    EXPECT_EQ(engine.timingRuns(), names.size());
    EXPECT_EQ(engine.cacheHits(), 0u);
}

TEST(SweepCache, SecondSweepSimulatesNothing)
{
    ScratchDir dir("sweep_cache_test");
    SweepPlan plan;
    for (const auto &name :
         {"129.compress", "101.tomcatv", "124.m88ksim"}) {
        plan.add(name, withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::Naive));
        plan.add(name, withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::SpecSync));
    }

    SweepOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir.path;

    Runner cold(3000);
    SweepEngine coldEngine(cold, opts);
    auto coldResults = coldEngine.run(plan);
    EXPECT_EQ(coldEngine.timingRuns(), plan.size());
    EXPECT_EQ(coldEngine.cacheHits(), 0u);

    // A fresh runner + engine sharing only the cache directory: every
    // run must be served from disk, zero timing simulations.
    Runner warm(3000);
    SweepEngine warmEngine(warm, opts);
    auto warmResults = warmEngine.run(plan);
    EXPECT_EQ(warmEngine.timingRuns(), 0u);
    EXPECT_EQ(warmEngine.cacheHits(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        expectSameResult(coldResults[i], warmResults[i]);
        // Host-profiling metadata: cold runs were simulated (and timed),
        // warm runs are flagged as served from the cache.
        EXPECT_FALSE(coldResults[i].cacheHit);
        EXPECT_GT(coldResults[i].wallMs, 0.0);
        EXPECT_TRUE(warmResults[i].cacheHit);
    }
    EXPECT_GT(coldEngine.totalWallMs(), 0.0);
    EXPECT_GT(coldEngine.totalSimCycles(), 0u);
    EXPECT_EQ(warmEngine.totalWallMs(), 0.0);
}

TEST(SweepCache, StaleAndPoisonedEntriesAreRecomputed)
{
    ScratchDir dir("sweep_poison_test");
    SweepPlan plan;
    plan.add("129.compress", withPolicy(makeW128Config(),
                                        LsqModel::NAS,
                                        SpecPolicy::Naive));

    // Poison the cache: garbage, truncation, a record with a stale
    // fingerprint (different scale), one with an unknown schema, and
    // records whose envelope is malformed. The cache once read fp with
    // sscanf("%llx") and scale unchecked, so a fingerprint with
    // trailing junk hit under its hex prefix, "-1" was indexed under
    // 2^64-1, and a scale of "4k" read as 0.
    {
        Runner other(9000);
        RunResult fake = other.run("129.compress", plan.jobs()[0].config);
        uint64_t staleFp = sweep::fingerprintRun(
            "129.compress", 9000, plan.jobs()[0].config);
        std::string realFp = strfmt(
            "%016llx",
            static_cast<unsigned long long>(sweep::fingerprintRun(
                "129.compress", 3000, plan.jobs()[0].config)));
        const std::string fpAt = "\"fp\":\"0000000000000012\"";
        const std::string scaleAt = "\"scale\":3000";
        auto withEnvelope = [&](const std::string &fp,
                                const std::string &scale) {
            std::string line = sweep::runRecordLine(fake, 0x12, 3000);
            line.replace(line.find(fpAt), fpAt.size(), "\"fp\":" + fp);
            line.replace(line.find(scaleAt), scaleAt.size(),
                         "\"scale\":" + scale);
            return line;
        };
        std::ofstream out(dir.path + "/runs.jsonl");
        out << "this is not json\n";
        out << "{\"v\":1,\"fp\":\"0123\",\"workload\":\"x\"\n";
        out << sweep::runRecordLine(fake, staleFp, 9000) << '\n';
        out << "{\"v\":999,\"fp\":\"00ff\",\"ok\":true}\n";
        out << withEnvelope("\"" + realFp + "zz\"", "3000") << '\n';
        out << withEnvelope("\"" + realFp + "\"", "\"4k\"") << '\n';
        out << withEnvelope("\"-1\"", "3000") << '\n';
    }
    EXPECT_EQ(sweep::fsckRunCache(dir.path).unparseable, 6u);

    SweepOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir.path;
    Runner runner(3000);
    SweepEngine engine(runner, opts);
    auto results = engine.run(plan);

    // Nothing matched the scale-3000 fingerprint, so the run was
    // simulated fresh, and the result reflects scale 3000.
    EXPECT_EQ(engine.timingRuns(), 1u);
    EXPECT_EQ(engine.cacheHits(), 0u);
    ASSERT_TRUE(results[0].ok);
    EXPECT_LT(results[0].commits, 6000u);

    // The freshly appended record must now hit.
    Runner again(3000);
    SweepEngine engine2(again, opts);
    auto results2 = engine2.run(plan);
    EXPECT_EQ(engine2.timingRuns(), 0u);
    EXPECT_EQ(engine2.cacheHits(), 1u);
    expectSameResult(results[0], results2[0]);
}

TEST(SweepJson, OneRecordPerRunIncludingFailures)
{
    ScratchDir dir("sweep_json_test");
    std::string jsonPath = dir.path + "/results.jsonl";

    SweepPlan plan;
    plan.add("129.compress", withPolicy(makeW128Config(),
                                        LsqModel::NAS,
                                        SpecPolicy::Naive));
    // A run that cannot finish: the cycle budget is far below what
    // the workload needs, so the halt check raises a SimError.
    SimConfig doomed = withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::Naive);
    doomed.maxCycles = 50;
    plan.add("129.compress", doomed);

    SweepOptions opts;
    opts.jobs = 2;
    opts.useCache = false;
    opts.jsonPath = jsonPath;
    Runner runner(3000);
    SweepEngine engine(runner, opts);
    auto results = engine.run(plan);

    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_EQ(runner.failures().size(), 1u);

    std::ifstream in(jsonPath);
    ASSERT_TRUE(in.good());
    std::vector<std::map<std::string, std::string>> records;
    std::string line;
    while (std::getline(in, line)) {
        std::map<std::string, std::string> fields;
        ASSERT_TRUE(parseFlatJson(line, fields)) << line;
        records.push_back(std::move(fields));
    }
    ASSERT_EQ(records.size(), plan.size());
    EXPECT_EQ(records[0].at("ok"), "true");
    EXPECT_EQ(records[1].at("ok"), "false");
    EXPECT_NE(records[1].at("error"), "");
    EXPECT_EQ(records[0].at("workload"), "129.compress");

    // Round trip through the record parser.
    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(records[1], parsed));
    expectSameResult(results[1], parsed);
}

TEST(SweepRecord, V2RoundTripsHostProfilingFields)
{
    RunResult r;
    r.workload = "129.compress";
    r.config = "NAS/NAV W128";
    r.ok = false;
    r.error = "SimError: watchdog";
    r.cycles = 5000;
    r.commits = 1234;
    r.wallMs = 250.0;
    r.cacheHit = true;
    r.diagnostic = "cycle 4999: commit seq 42\ncycle 5000: halt";
    EXPECT_DOUBLE_EQ(r.simCyclesPerSec(), 20'000.0);

    std::string line = sweep::runRecordLine(r, 0xabcdull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("v"), "5");
    EXPECT_EQ(fields.at("wall_ms"), "250");
    EXPECT_EQ(fields.at("sim_cycles_per_sec"), "20000");
    EXPECT_EQ(fields.at("cache_hit"), "true");
    EXPECT_NE(fields.at("diagnostic").find("halt"), std::string::npos);

    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);
    EXPECT_DOUBLE_EQ(parsed.wallMs, 250.0);
    EXPECT_TRUE(parsed.cacheHit);
    EXPECT_EQ(parsed.diagnostic, r.diagnostic);

    // A v2+ record missing its host-profiling fields is malformed.
    fields.erase("wall_ms");
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
}

TEST(SweepRecord, V3RoundTripsCpiStack)
{
    RunResult r;
    r.workload = "129.compress";
    r.config = "NAS/NAV W128";
    r.cycles = 1000;
    r.commits = 2600;
    r.commitWidth = 8;
    r.cpiSlots[size_t(obs::CpiCause::Committed)] = 2600;
    r.cpiSlots[size_t(obs::CpiCause::MemDepSquash)] = 1400;
    r.cpiSlots[size_t(obs::CpiCause::CacheMiss)] = 4000;
    ASSERT_EQ(r.cpiTotalSlots(), r.cycles * 8);
    EXPECT_DOUBLE_EQ(r.cpiFraction(obs::CpiCause::CacheMiss), 0.5);

    std::string line = sweep::runRecordLine(r, 0x1234ull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("commit_width"), "8");
    EXPECT_EQ(fields.at("cpi_committed"), "2600");
    EXPECT_EQ(fields.at("cpi_mem_dep_squash"), "1400");
    EXPECT_EQ(fields.at("cpi_cache_miss"), "4000");
    EXPECT_EQ(fields.at("cpi_exec"), "0");

    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);

    // The same fields relabeled v2 are rejected: only the current
    // schema is read.
    auto relabeled = fields;
    relabeled["v"] = "2";
    EXPECT_FALSE(sweep::runRecordParse(relabeled, parsed));

    // A record missing any CPI field is malformed.
    fields.erase("cpi_window_full");
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
}

TEST(SweepRecord, V1RecordsStayReadable)
{
    // A record of the first schema (run_record_version 1, before the
    // host-profiling fields) is no longer read: a cache holding one
    // recomputes the run, and cwsim-report names the version.
    JsonObject obj;
    obj.add("v", static_cast<uint64_t>(1))
        .add("fp", std::string("00000000deadbeef"))
        .add("workload", std::string("129.compress"))
        .add("config", std::string("NAS/NAV W128"))
        .add("scale", static_cast<uint64_t>(3000))
        .add("ok", true)
        .add("error", std::string())
        .add("cycles", static_cast<uint64_t>(4321))
        .add("commits", static_cast<uint64_t>(3000))
        .add("committedLoads", static_cast<uint64_t>(700))
        .add("committedStores", static_cast<uint64_t>(300))
        .add("violations", static_cast<uint64_t>(5))
        .add("replays", static_cast<uint64_t>(9))
        .add("selectiveRecoveries", static_cast<uint64_t>(2))
        .add("selectiveFallbacks", static_cast<uint64_t>(1))
        .add("branchMispredicts", static_cast<uint64_t>(40))
        .add("squashedInsts", static_cast<uint64_t>(200))
        .add("falseDepLoads", static_cast<uint64_t>(11))
        .add("falseDepLatency", 17.5)
        .add("injectedViolations", static_cast<uint64_t>(0))
        .add("ipc", 0.694);

    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(obj.str(), fields));
    RunResult parsed;
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
    // Relabeling it v5 does not help: every v5 field is required.
    fields["v"] = "5";
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));

    // A signed counter is malformed, not 2^64-1.
    RunResult r;
    r.workload = "129.compress";
    r.cycles = 4321;
    ASSERT_TRUE(parseFlatJson(sweep::runRecordLine(r, 0xbeef, 3000),
                              fields));
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    fields["cycles"] = "-1";
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
    fields["cycles"] = "+4321";
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
    fields["cycles"] = "4321";

    // Unknown future versions are rejected too.
    fields["v"] = "9";
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
}

TEST(SweepRecord, V4RoundTripsFailureTaxonomy)
{
    RunResult r;
    r.workload = "126.gcc";
    r.config = "NAS/NAV W128";
    r.ok = false;
    r.error = "isolated run died: crash(SIGSEGV) after 2 attempt(s)";
    r.failKind = harness::FailKind::Crash;
    r.failDetail = "SIGSEGV";
    r.injectedHostFault = true;

    std::string line = sweep::runRecordLine(r, 0x1234ull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("fail_kind"), "crash");
    EXPECT_EQ(fields.at("fail_detail"), "SIGSEGV");
    EXPECT_EQ(fields.at("fail_injected"), "true");

    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);

    // A v4 record missing any taxonomy field is malformed...
    auto broken = fields;
    broken.erase("fail_kind");
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));
    broken = fields;
    broken["fail_kind"] = "exploded";
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));

    // ...and so are the same fields relabeled v3: only the current
    // schema is read.
    fields["v"] = "3";
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
}

TEST(SweepRecord, V5RoundTripsDependenceProfileSummary)
{
    RunResult r;
    r.workload = "129.compress";
    r.config = "NAS/NAV W128";
    r.cycles = 1000;
    r.commits = 900;
    r.depProfiled = true;
    r.depLoads = 12;
    r.depStores = 7;
    r.depEdges = 3;
    r.depHotEdges = "0x200-0x100:5:0;0x210-0x104:2:1";

    std::string line = sweep::runRecordLine(r, 0x1234ull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("dep_profiled"), "true");
    EXPECT_EQ(fields.at("dep_loads"), "12");
    EXPECT_EQ(fields.at("dep_stores"), "7");
    EXPECT_EQ(fields.at("dep_edges"), "3");
    EXPECT_EQ(fields.at("dep_hot_edges"), r.depHotEdges);

    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);
    EXPECT_TRUE(parsed.depProfiled);
    EXPECT_EQ(parsed.depLoads, 12u);
    EXPECT_EQ(parsed.depStores, 7u);
    EXPECT_EQ(parsed.depEdges, 3u);
    EXPECT_EQ(parsed.depHotEdges, r.depHotEdges);

    // A v5 record missing any dependence-summary field is malformed,
    // as is a non-boolean dep_profiled.
    auto broken = fields;
    broken.erase("dep_profiled");
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));
    broken = fields;
    broken.erase("dep_hot_edges");
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));
    broken = fields;
    broken["dep_profiled"] = "maybe";
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));

    // The same fields relabeled v4 are rejected: only the current
    // schema is read.
    fields["v"] = "4";
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
}

TEST(FailKindTest, NamesRoundTrip)
{
    using harness::FailKind;
    for (FailKind k : {FailKind::None, FailKind::SimError,
                       FailKind::Crash, FailKind::Timeout,
                       FailKind::Oom, FailKind::Protocol}) {
        FailKind back = FailKind::None;
        ASSERT_TRUE(harness::failKindFromString(harness::toString(k),
                                                back));
        EXPECT_EQ(back, k);
    }
    FailKind out;
    EXPECT_FALSE(harness::failKindFromString("bogus", out));

    RunResult r;
    EXPECT_EQ(r.failLabel(), "-");
    r.failKind = FailKind::Timeout;
    EXPECT_EQ(r.failLabel(), "timeout");
    r.failDetail = "wall-clock 2.0s";
    EXPECT_EQ(r.failLabel(), "timeout(wall-clock 2.0s)");
}

TEST(SweepCache, TornTrailingRecordIsSilentlySkipped)
{
    ScratchDir dir("sweep_torn_test");
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);

    RunResult good;
    good.workload = "129.compress";
    good.config = cfg.name();
    good.cycles = 1234;
    good.commits = 999;
    uint64_t fp = sweep::fingerprintRun("129.compress", 3000, cfg);

    // A complete record followed by a record torn mid-line — the
    // signature of a writer killed inside append() — with no newline.
    {
        std::ofstream out(dir.path + "/runs.jsonl", std::ios::binary);
        out << sweep::runRecordLine(good, fp, 3000) << '\n';
        std::string torn = sweep::runRecordLine(good, fp + 1, 3000);
        out << torn.substr(0, torn.size() / 2);
    }

    // Reload: the torn tail is expected damage, not corruption.
    sweep::RunCache cache(dir.path);
    EXPECT_EQ(cache.size(), 1u);
    RunResult out;
    ASSERT_TRUE(cache.lookup(fp, out));
    EXPECT_EQ(out.cycles, 1234u);
    EXPECT_FALSE(cache.lookup(fp + 1, out));

    sweep::CacheFsckReport rep = sweep::fsckRunCache(dir.path);
    EXPECT_TRUE(rep.tornTail);
    EXPECT_EQ(rep.unparseable, 0u);
    EXPECT_TRUE(rep.clean());

    // The next append repairs the tail: every line of the file,
    // including the new record, now parses.
    RunResult fresh = good;
    fresh.cycles = 4321;
    cache.append(fp + 2, 3000, fresh);

    sweep::RunCache reloaded(dir.path);
    EXPECT_EQ(reloaded.size(), 2u);
    ASSERT_TRUE(reloaded.lookup(fp + 2, out));
    EXPECT_EQ(out.cycles, 4321u);
    EXPECT_FALSE(sweep::fsckRunCache(dir.path).tornTail);
}

TEST(SweepCache, FsckAndCompact)
{
    ScratchDir dir("sweep_fsck_test");
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    RunResult r;
    r.workload = "130.li";
    r.config = cfg.name();

    // Two distinct fingerprints; fp1 written twice (later wins), plus
    // a garbage line and a torn tail.
    {
        std::ofstream out(dir.path + "/runs.jsonl", std::ios::binary);
        r.cycles = 1;
        out << sweep::runRecordLine(r, 0xa1, 3000) << '\n';
        r.cycles = 2;
        out << sweep::runRecordLine(r, 0xb2, 3000) << '\n';
        out << "definitely not json\n";
        r.cycles = 3;
        out << sweep::runRecordLine(r, 0xa1, 3000) << '\n';
        out << "{\"v\":4,\"torn";
    }

    sweep::CacheFsckReport rep = sweep::fsckRunCache(dir.path);
    EXPECT_EQ(rep.lines, 4u);
    EXPECT_EQ(rep.valid, 3u);
    EXPECT_EQ(rep.duplicates, 1u);
    EXPECT_EQ(rep.distinct(), 2u);
    EXPECT_EQ(rep.unparseable, 1u);
    EXPECT_TRUE(rep.tornTail);
    EXPECT_FALSE(rep.clean());
    EXPECT_NE(rep.summary().find("2 distinct"), std::string::npos);

    // Compaction keeps the newest record per fingerprint and drops the
    // garbage and the torn tail.
    std::string err;
    sweep::CacheFsckReport before;
    ASSERT_TRUE(sweep::compactRunCache(dir.path, &err, &before))
        << err;
    EXPECT_EQ(before.distinct(), 2u);

    sweep::CacheFsckReport after = sweep::fsckRunCache(dir.path);
    EXPECT_EQ(after.lines, 2u);
    EXPECT_EQ(after.valid, 2u);
    EXPECT_EQ(after.duplicates, 0u);
    EXPECT_EQ(after.unparseable, 0u);
    EXPECT_FALSE(after.tornTail);
    EXPECT_TRUE(after.clean());

    // The superseding (cycles == 3) record survived, not the original.
    sweep::RunCache cache(dir.path);
    RunResult out;
    ASSERT_TRUE(cache.lookup(0xa1, out));
    EXPECT_EQ(out.cycles, 3u);
    ASSERT_TRUE(cache.lookup(0xb2, out));
    EXPECT_EQ(out.cycles, 2u);

    // Compacting a directory with no cache file is a clean no-op.
    ScratchDir empty("sweep_fsck_empty");
    EXPECT_TRUE(sweep::compactRunCache(empty.path, &err));
    EXPECT_TRUE(sweep::fsckRunCache(empty.path).clean());
}

TEST(SweepCache, CompactIsSafeWhileAWriterHoldsTheCacheOpen)
{
    // A daemon keeps its RunCache (and its O_APPEND descriptor) open
    // across compactions. Because compaction rewrites the same inode
    // in place under the appenders' flock — rather than renaming a
    // temp file over it — records the live writer appends AFTER the
    // compaction must land in the surviving file, not a renamed-away
    // orphan.
    ScratchDir dir("sweep_compact_live_writer");
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    RunResult r;
    r.workload = "130.li";
    r.config = cfg.name();

    sweep::RunCache writer(dir.path); // stays open throughout
    r.cycles = 1;
    writer.append(0xa1, 3000, r);
    r.cycles = 2;
    writer.append(0xa1, 3000, r); // superseded duplicate
    r.cycles = 3;
    writer.append(0xb2, 3000, r);

    std::string err;
    ASSERT_TRUE(sweep::compactRunCache(dir.path, &err)) << err;
    EXPECT_EQ(sweep::fsckRunCache(dir.path).duplicates, 0u);

    // The still-open writer appends more; a fresh reader must see both
    // the compacted records and the post-compaction append.
    r.cycles = 4;
    writer.append(0xc3, 3000, r);

    sweep::RunCache reader(dir.path);
    EXPECT_EQ(reader.size(), 3u);
    RunResult out;
    ASSERT_TRUE(reader.lookup(0xa1, out));
    EXPECT_EQ(out.cycles, 2u);
    ASSERT_TRUE(reader.lookup(0xb2, out));
    EXPECT_EQ(out.cycles, 3u);
    ASSERT_TRUE(reader.lookup(0xc3, out));
    EXPECT_EQ(out.cycles, 4u);
    EXPECT_TRUE(sweep::fsckRunCache(dir.path).clean());
}

TEST(SweepCache, ForEachVisitsEveryEntryWithItsScale)
{
    ScratchDir dir("sweep_foreach_test");
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    RunResult r;
    r.workload = "130.li";
    r.config = cfg.name();

    sweep::RunCache cache(dir.path);
    r.cycles = 7;
    cache.append(0xa1, 3000, r);
    r.cycles = 8;
    cache.append(0xb2, 5000, r);

    // Scale must survive a reload too (it rides in the record line).
    sweep::RunCache reloaded(dir.path);
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> seen;
    reloaded.forEach([&](uint64_t fp, uint64_t scale,
                         const RunResult &run) {
        seen[fp] = {scale, run.cycles};
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0xa1].first, 3000u);
    EXPECT_EQ(seen[0xa1].second, 7u);
    EXPECT_EQ(seen[0xb2].first, 5000u);
    EXPECT_EQ(seen[0xb2].second, 8u);
}

TEST(SweepFingerprint, SensitiveToEveryInput)
{
    SimConfig base = withPolicy(makeW128Config(), LsqModel::NAS,
                                SpecPolicy::Naive);
    uint64_t fp = sweep::fingerprintRun("129.compress", 4000, base);

    // Stable.
    EXPECT_EQ(fp, sweep::fingerprintRun("129.compress", 4000, base));

    // Workload and scale.
    EXPECT_NE(fp, sweep::fingerprintRun("130.li", 4000, base));
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4001, base));

    // Any config knob, including check.* and fault knobs.
    SimConfig differ = base;
    differ.mdp.recovery = RecoveryModel::Selective;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.check.level = 2;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.check.faults.seed = 99;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.check.faults.spuriousViolationRate = 0.25;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.check.faults.hostCrashRate = 0.5;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.mem.memBaseLatency += 1;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
}

TEST(SweepParallelFor, CoversAllIndicesOnce)
{
    std::vector<int> counts(100, 0);
    sweep::parallelFor(counts.size(), 7,
                       [&](size_t i) { counts[i]++; });
    for (int c : counts)
        EXPECT_EQ(c, 1);
}

TEST(SweepParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        sweep::parallelFor(16, 4,
                           [](size_t i) {
                               if (i == 9)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

TEST(SweepParallelFor, CancelsQueuePromptlyOnError)
{
    // A fatal error in one job must stop workers from claiming the
    // rest of the queue: with 10k queued jobs and a throw on the very
    // first, only the handful already claimed may still run.
    constexpr size_t n = 10'000;
    std::atomic<size_t> executed{0};
    EXPECT_THROW(
        sweep::parallelFor(n, 4,
                           [&](size_t i) {
                               if (i == 0)
                                   throw std::runtime_error("fatal");
                               executed.fetch_add(1);
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(1));
                           }),
        std::runtime_error);
    EXPECT_LT(executed.load(), n / 10);
}

TEST(JsonlTest, EscapeAndRoundTrip)
{
    JsonObject obj;
    obj.add("s", std::string("a\"b\\c\nd"))
        .add("n", static_cast<uint64_t>(42))
        .add("f", 0.5)
        .add("b", true)
        .add("nan", std::numeric_limits<double>::quiet_NaN());
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(obj.str(), fields));
    EXPECT_EQ(fields.at("s"), "a\"b\\c\nd");
    EXPECT_EQ(fields.at("n"), "42");
    EXPECT_EQ(fields.at("f"), "0.5");
    EXPECT_EQ(fields.at("b"), "true");
    EXPECT_EQ(fields.at("nan"), "nan");
}

TEST(JsonlTest, RejectsMalformedLines)
{
    std::map<std::string, std::string> fields;
    EXPECT_FALSE(parseFlatJson("", fields));
    EXPECT_FALSE(parseFlatJson("not json", fields));
    EXPECT_FALSE(parseFlatJson("{\"a\":1", fields));
    EXPECT_FALSE(parseFlatJson("{\"a\":{\"b\":1}}", fields));
    EXPECT_FALSE(parseFlatJson("{\"a\":1}trailing", fields));
    EXPECT_TRUE(parseFlatJson("{}", fields));
    EXPECT_TRUE(fields.empty());
}

TEST(ResolveJobsTest, ClampsRequestToHardwareConcurrency)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // An explicit request is honored up to the core count; CPU-bound
    // workers beyond it only time-slice, inflating per-run wall time.
    EXPECT_EQ(sweep::resolveJobs(1), 1u);
    EXPECT_LE(sweep::resolveJobs(1000), hw);
    // The default (0) resolves to at least one worker.
    EXPECT_GE(sweep::resolveJobs(0), 1u);
    EXPECT_LE(sweep::resolveJobs(0), hw);
}

TEST(BenchCliTest, ParsesSharedFlags)
{
    const char *argv[] = {"bench",      "--jobs",  "3",
                          "--scale",    "12000",   "--filter",
                          "compress",   "--json",  "out.jsonl",
                          "--no-cache", "--cache-dir", "cdir"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.scale, 12000u);
    EXPECT_EQ(opts.filter, "compress");
    EXPECT_EQ(opts.jsonPath, "out.jsonl");
    EXPECT_FALSE(opts.cache);
    EXPECT_EQ(opts.cacheDir, "cdir");
}

TEST(BenchCliTest, RejectsSignedCounts)
{
    // "--scale -1" used to wrap to 2^64-1 and hang the sweep; a sign
    // or leading space is no longer skipped.
    for (const char *bad : {"-1", "+4000", " 4000"}) {
        for (const char *flag : {"--scale", "--jobs"}) {
            const char *argv[] = {"bench", flag, bad};
            EXPECT_EXIT(sweep::parseBenchArgs(
                            3, const_cast<char **>(argv)),
                        ::testing::ExitedWithCode(1),
                        "not an unsigned integer")
                << flag << " '" << bad << "'";
        }
    }
}

TEST(BenchCliTest, RejectsCountsWiderThanTheirField)
{
    // These parsed 64 bits and were then cast to 32: "--jobs
    // 4294967297" ran one worker, and a --mem-limit past 2^44 MiB
    // wrapped to a 1 MiB RLIMIT_AS that killed every run.
    const std::pair<const char *, const char *> bad[] = {
        {"--jobs", "4294967296"},
        {"--jobs", "4294967297"},
        {"--retries", "4294967296"},
        {"--mem-limit", "17592186044416"},
        {"--mem-limit", "17592186044417"},
    };
    for (const auto &[flag, value] : bad) {
        const char *argv[] = {"bench", flag, value};
        EXPECT_EXIT(sweep::parseBenchArgs(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1), "must be <=")
            << flag << " " << value;
    }
    const char *widest[] = {"bench", "--jobs", "4294967295", "--retries",
                            "4294967295", "--mem-limit",
                            "17592186044415"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(widest)),
        const_cast<char **>(widest));
    EXPECT_EQ(opts.jobs, 4294967295u);
    EXPECT_EQ(opts.retries, 4294967295u);
    EXPECT_EQ(opts.memLimitMb, 17592186044415u);
}

TEST(BenchCliTest, EnvCountsWiderThanTheirFieldFallBack)
{
    const char *bare[] = {"bench"};
    setenv("CWSIM_RETRIES", "4294967296", 1);
    setenv("CWSIM_MEM_LIMIT", "17592186044417", 1);
    sweep::BenchOptions opts =
        sweep::parseBenchArgs(1, const_cast<char **>(bare));
    EXPECT_EQ(opts.retries, 1u) << "wrapped to 0 retries";
    EXPECT_EQ(opts.memLimitMb, 0u);
    unsetenv("CWSIM_RETRIES");
    unsetenv("CWSIM_MEM_LIMIT");

    // CWSIM_JOBS=2^32+1 used to resolve to one worker, not the
    // default of every hardware thread.
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    setenv("CWSIM_JOBS", "4294967297", 1);
    EXPECT_EQ(sweep::resolveJobs(0), hw);
    unsetenv("CWSIM_JOBS");
}

TEST(BenchCliTest, RejectsNonFiniteOrPaddedSeconds)
{
    // "--timeout inf" used to be accepted, and every isolated run then
    // died as timeout(wall-clock infs): the deadline's int64 cast
    // overflowed. Whitespace, hex and out-of-range values were taken
    // by strtod as well.
    for (const char *bad : {"inf", "nan", "-0", " 2", "0x10", "1e300",
                            "2s", ""}) {
        const char *argv[] = {"bench", "--timeout", bad};
        EXPECT_EXIT(sweep::parseBenchArgs(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1),
                    "not a non-negative number of seconds")
            << "'" << bad << "'";
    }

}

TEST(BenchCliTest, ParsesTracingFlags)
{
    const char *argv[] = {"bench",         "--trace",    "MDP,Recovery",
                          "--trace-file",  "trace.log",  "--pipeview",
                          "pipe.out",      "--interval", "500",
                          "--interval-file", "iv.jsonl"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(opts.traceSpec, "MDP,Recovery");
    EXPECT_EQ(opts.traceFile, "trace.log");
    EXPECT_EQ(opts.pipeviewPath, "pipe.out");
    EXPECT_EQ(opts.intervalCycles, 500u);
    EXPECT_EQ(opts.intervalFile, "iv.jsonl");
}

TEST(BenchCliTest, AcceptsInlineFlagValues)
{
    // Both "--flag value" and "--flag=value" forms are accepted.
    const char *argv[] = {"bench", "--trace=all", "--jobs=2",
                          "--scale=9000", "--interval=250",
                          "--filter=compress"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(opts.traceSpec, "all");
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_EQ(opts.scale, 9000u);
    EXPECT_EQ(opts.intervalCycles, 250u);
    EXPECT_EQ(opts.filter, "compress");
}

TEST(BenchCliTest, ParsesDepProfFlags)
{
    const char *bare[] = {"bench", "--depprof"};
    sweep::BenchOptions opts =
        sweep::parseBenchArgs(2, const_cast<char **>(bare));
    EXPECT_TRUE(opts.depprof);
    EXPECT_TRUE(opts.depprofFile.empty());

    // --depprof-file implies --depprof; both value forms work.
    const char *with_file[] = {"bench", "--depprof-file",
                               "prof.depprof.jsonl"};
    opts = sweep::parseBenchArgs(3, const_cast<char **>(with_file));
    EXPECT_TRUE(opts.depprof);
    EXPECT_EQ(opts.depprofFile, "prof.depprof.jsonl");

    const char *inlined[] = {"bench", "--depprof-file=p.jsonl"};
    opts = sweep::parseBenchArgs(2, const_cast<char **>(inlined));
    EXPECT_TRUE(opts.depprof);
    EXPECT_EQ(opts.depprofFile, "p.jsonl");

    const char *off[] = {"bench"};
    opts = sweep::parseBenchArgs(1, const_cast<char **>(off));
    EXPECT_FALSE(opts.depprof);
}

TEST(BenchCliTest, ParsesIsolationFlags)
{
    const char *argv[] = {"bench",       "--isolate", "--timeout",
                          "2.5",         "--mem-limit", "4096",
                          "--retries",   "3",         "--set",
                          "core.windowSize=64", "--set=mdp.policy=SYNC"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_TRUE(opts.isolate);
    EXPECT_DOUBLE_EQ(opts.timeoutSec, 2.5);
    EXPECT_EQ(opts.memLimitMb, 4096u);
    EXPECT_EQ(opts.retries, 3u);
    ASSERT_EQ(opts.configOverrides.size(), 2u);
    EXPECT_EQ(opts.configOverrides[0], "core.windowSize=64");
    EXPECT_EQ(opts.configOverrides[1], "mdp.policy=SYNC");
    EXPECT_FALSE(opts.cacheFsck);
    EXPECT_FALSE(opts.cacheCompact);

    const char *maint[] = {"bench", "--cache-fsck", "--cache-compact"};
    opts = sweep::parseBenchArgs(3, const_cast<char **>(maint));
    EXPECT_TRUE(opts.cacheFsck);
    EXPECT_TRUE(opts.cacheCompact);
}

TEST(BenchCliTest, IsolationFlagsReadEnvDefaults)
{
    const char *bare[] = {"bench"};
    unsetenv("CWSIM_ISOLATE");
    unsetenv("CWSIM_TIMEOUT");
    unsetenv("CWSIM_MEM_LIMIT");
    unsetenv("CWSIM_RETRIES");
    sweep::BenchOptions opts =
        sweep::parseBenchArgs(1, const_cast<char **>(bare));
    EXPECT_FALSE(opts.isolate);
    EXPECT_DOUBLE_EQ(opts.timeoutSec, 0.0);
    EXPECT_EQ(opts.memLimitMb, 0u);
    EXPECT_EQ(opts.retries, 1u);

    setenv("CWSIM_ISOLATE", "1", 1);
    setenv("CWSIM_TIMEOUT", "1.5", 1);
    setenv("CWSIM_MEM_LIMIT", "2048", 1);
    setenv("CWSIM_RETRIES", "0", 1);
    opts = sweep::parseBenchArgs(1, const_cast<char **>(bare));
    EXPECT_TRUE(opts.isolate);
    EXPECT_DOUBLE_EQ(opts.timeoutSec, 1.5);
    EXPECT_EQ(opts.memLimitMb, 2048u);
    EXPECT_EQ(opts.retries, 0u);

    // Malformed env values warn and fall back, like every CWSIM knob.
    for (const char *bad : {"soon", "inf", " 2", "1e300"}) {
        setenv("CWSIM_TIMEOUT", bad, 1);
        opts = sweep::parseBenchArgs(1, const_cast<char **>(bare));
        EXPECT_DOUBLE_EQ(opts.timeoutSec, 0.0) << "'" << bad << "'";
    }

    unsetenv("CWSIM_ISOLATE");
    unsetenv("CWSIM_TIMEOUT");
    unsetenv("CWSIM_MEM_LIMIT");
    unsetenv("CWSIM_RETRIES");
}

TEST(BenchCliTest, DefaultScaleRespectsEnvAndOverride)
{
    unsetenv("CWSIM_SCALE");
    const char *bare[] = {"bench"};
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare)).scale,
              80'000u);
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare), 40'000)
                  .scale,
              40'000u);
    setenv("CWSIM_SCALE", "24000", 1);
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare)).scale,
              24'000u);
    unsetenv("CWSIM_SCALE");
}

TEST(BenchCliTest, FilterNames)
{
    std::vector<std::string> names = {"099.go", "129.compress",
                                      "130.li"};
    EXPECT_EQ(sweep::filterNames(names, "").size(), 3u);
    EXPECT_EQ(sweep::filterNames(names, "compress").size(), 1u);
    EXPECT_EQ(sweep::filterNames(names, "1").size(), 2u);
    EXPECT_TRUE(sweep::filterNames(names, "zzz").empty());
}

TEST(SweepJobs, ResolveJobsPrefersExplicitThenEnv)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    unsetenv("CWSIM_JOBS");
    EXPECT_EQ(sweep::resolveJobs(5), std::min(5u, hw));
    EXPECT_GE(sweep::resolveJobs(0), 1u);
    setenv("CWSIM_JOBS", "3", 1);
    EXPECT_EQ(sweep::resolveJobs(0), std::min(3u, hw));
    setenv("CWSIM_JOBS", "junk", 1);
    EXPECT_GE(sweep::resolveJobs(0), 1u); // falls back with a warn
    unsetenv("CWSIM_JOBS");
}

} // anonymous namespace
} // namespace cwsim
