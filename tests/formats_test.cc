/**
 * @file
 * Pins the three text formats the sweep keeps its results in: the
 * canonical config text (hashed into the run-cache fingerprint), the
 * run record and the .depprof.jsonl dependence profile. Each is held
 * to committed bytes under tests/golden/ or to known fingerprints, so
 * a reordered, renamed or reformatted field fails here rather than
 * only in a bench-sweep diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <unistd.h>

#include "base/jsonl.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "harness/harness.hh"
#include "mdp/dep_profile.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "sim/config.hh"
#include "sim/config_parse.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace
{

using harness::RunResult;
using sweep::ReportRecord;

std::string
readSource(const std::string &relative)
{
    std::ifstream in(std::string(CWSIM_SOURCE_DIR) + "/" + relative,
                     std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << relative;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** key -> value of each `key=value` line of @p text, in order. */
std::vector<std::pair<std::string, std::string>>
configLines(const std::string &text)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &line : split(text, '\n')) {
        if (line.empty())
            continue;
        size_t eq = line.find('=');
        out.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    return out;
}

// ---------------------------------------------------------------------
// Config text.
// ---------------------------------------------------------------------

TEST(ConfigText, DefaultMachineMatchesCommittedText)
{
    EXPECT_EQ(serializeConfig(SimConfig{}),
              readSource("tests/golden/default_config.txt"));
}

TEST(ConfigText, Fig2FingerprintsMatchTheGolden)
{
    const std::pair<SpecPolicy, const char *> fig2[] = {
        {SpecPolicy::No, "a74a74911b8eb897"},
        {SpecPolicy::Oracle, "31f6c52034d04194"},
        {SpecPolicy::Naive, "ce65be93b3b6da8d"},
    };
    std::vector<ReportRecord> golden;
    std::string err;
    ASSERT_TRUE(sweep::loadRunRecords(
        std::string(CWSIM_SOURCE_DIR) +
            "/tests/golden/fig2_scale4000.jsonl",
        golden, &err))
        << err;
    for (const auto &[policy, fp] : fig2) {
        SimConfig cfg =
            withPolicy(makeW128Config(), LsqModel::NAS, policy);
        EXPECT_EQ(strfmt("%016llx",
                         static_cast<unsigned long long>(
                             sweep::fingerprintRun("129.compress", 4000,
                                                   cfg))),
                  fp)
            << cfg.name();
        auto it = std::find_if(
            golden.begin(), golden.end(), [&](const ReportRecord &r) {
                return r.run.workload == "129.compress" &&
                       r.run.config == cfg.name();
            });
        ASSERT_NE(it, golden.end()) << cfg.name();
        EXPECT_EQ(it->fp, fp) << cfg.name();
    }
}

/** Every key config_parse accepts: the printed keys minus 22. */
const std::set<std::string> accepted_keys = {
    "core.fetchWidth", "core.fetchToDispatch", "core.windowSize",
    "core.lsqSize", "core.storeBufferSize", "core.issueWidth",
    "core.commitWidth", "core.memPorts", "core.fuCopies",
    "core.lsqInputPorts", "mem.icache.sizeBytes",
    "mem.icache.hitLatency", "mem.dcache.sizeBytes", "mem.dcache.assoc",
    "mem.dcache.banks", "mem.dcache.hitLatency", "mem.l2.sizeBytes",
    "mem.memBaseLatency", "bpred.predictorEntries",
    "bpred.gselectHistoryBits", "bpred.btbEntries", "bpred.rasEntries",
    "mdp.lsqModel", "mdp.policy", "mdp.asLatency", "mdp.mdptEntries",
    "mdp.mdptAssoc", "mdp.counterBits", "mdp.predictThreshold",
    "mdp.resetInterval", "mdp.recovery", "check.level",
    "check.watchdogInterval", "check.flightRecorderSize",
    "check.faults.seed", "check.faults.spuriousViolationRate",
    "check.faults.storeAddrDelayRate", "check.faults.storeAddrDelay",
    "check.faults.mdptDropRate", "check.faults.mdptCorruptRate",
    "check.faults.hostCrashRate", "check.faults.hostHangRate",
    "check.faults.hostAllocRate", "maxInsts", "maxCycles",
};

TEST(ConfigText, EveryAcceptedKeyPrintsAndMovesTheFingerprint)
{
    std::vector<std::string> keys = configKeys();
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()),
              accepted_keys);
    EXPECT_EQ(keys.size(), accepted_keys.size()) << "a key listed twice";

    const uint64_t base_fp =
        sweep::fingerprintRun("129.compress", 4000, SimConfig{});
    const std::map<std::string, std::string> names = {
        {"NAS", "AS"}, {"NO", "ORACLE"}, {"squash", "selective"}};
    for (const auto &[key, value] :
         configLines(serializeConfig(SimConfig{}))) {
        if (!accepted_keys.count(key))
            continue;
        // Every default is a name or a number, and one more than the
        // default is a valid value for each numeric key (a rate's
        // default is 0).
        std::string other = names.count(value)
                                ? names.at(value)
                                : std::to_string(std::stoull(value) + 1);
        SimConfig cfg;
        applyConfigOption(cfg, key + "=" + other);
        std::string text = "\n" + serializeConfig(cfg);
        EXPECT_NE(text.find("\n" + key + "=" + other + "\n"),
                  std::string::npos)
            << key << "=" << other;
        EXPECT_NE(sweep::fingerprintRun("129.compress", 4000, cfg),
                  base_fp)
            << key;
    }
}

TEST(ConfigText, RowsWithoutAParserAreUnknownKeys)
{
    size_t printed_only = 0;
    for (const auto &[key, value] :
         configLines(serializeConfig(SimConfig{}))) {
        if (accepted_keys.count(key))
            continue;
        ++printed_only;
        ScopedErrorTrap trap;
        SimConfig cfg;
        try {
            applyConfigOption(cfg, key + "=" + value);
            ADD_FAILURE() << key << " was accepted";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown key"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(printed_only, 22u);

    ScopedErrorTrap trap;
    SimConfig cfg;
    EXPECT_THROW(applyConfigOption(cfg, "mem.l2AccessLatency=12"),
                 SimError);
}

// ---------------------------------------------------------------------
// Run records.
// ---------------------------------------------------------------------

/** A result whose every field differs from RunResult{} and the rest. */
RunResult
distinctResult()
{
    RunResult r;
    r.workload = "130.li";
    r.config = "AS/SYNC";
    r.cycles = 11;
    r.commits = 12;
    r.committedLoads = 13;
    r.committedStores = 14;
    r.violations = 15;
    r.replays = 16;
    r.selectiveRecoveries = 17;
    r.selectiveFallbacks = 18;
    r.branchMispredicts = 19;
    r.squashedInsts = 20;
    r.falseDepLoads = 21;
    r.falseDepLatency = 2.25;
    r.injectedViolations = 22;
    for (size_t i = 0; i < obs::num_cpi_causes; ++i)
        r.cpiSlots[i] = 100 + i;
    r.commitWidth = 7;
    r.ok = false;
    r.error = "died \"hard\"";
    r.failKind = harness::FailKind::Timeout;
    r.failDetail = "wall-clock 2.0s";
    r.injectedHostFault = true;
    r.diagnostic = "event one\nevent two";
    r.depProfiled = true;
    r.depLoads = 23;
    r.depStores = 24;
    r.depEdges = 25;
    r.depHotEdges = "0x10-0x20:1:2";
    r.wallMs = 3.5;
    r.queueMs = 4.75;
    r.cacheHit = true;
    return r;
}

TEST(RunRecordFormat, LinesMatchCommittedBytes)
{
    // Two lines: a failed run (ipc is "nan") and the same run with
    // ok set, under other envelopes.
    RunResult r = distinctResult();
    std::string lines = sweep::runRecordLine(r, 0x0123456789abcdefull,
                                             4321) + "\n";
    r.ok = true;
    lines += sweep::runRecordLine(r, 0xfedcba9876543210ull, 1) + "\n";
    EXPECT_EQ(lines, readSource("tests/golden/run_records.jsonl"));
}

TEST(RunRecordFormat, EveryFieldRoundTripsWithADistinctValue)
{
    const RunResult r = distinctResult();
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(
        sweep::runRecordLine(r, 0x0123456789abcdefull, 4321), fields));
    RunResult back;
    uint64_t fp = 0, scale = 0;
    ASSERT_TRUE(
        sweep::runRecordParseWithEnvelope(fields, back, fp, scale));
    EXPECT_EQ(fp, 0x0123456789abcdefull);
    EXPECT_EQ(scale, 4321u);
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.config, r.config);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.commits, r.commits);
    EXPECT_EQ(back.committedLoads, r.committedLoads);
    EXPECT_EQ(back.committedStores, r.committedStores);
    EXPECT_EQ(back.violations, r.violations);
    EXPECT_EQ(back.replays, r.replays);
    EXPECT_EQ(back.selectiveRecoveries, r.selectiveRecoveries);
    EXPECT_EQ(back.selectiveFallbacks, r.selectiveFallbacks);
    EXPECT_EQ(back.branchMispredicts, r.branchMispredicts);
    EXPECT_EQ(back.squashedInsts, r.squashedInsts);
    EXPECT_EQ(back.falseDepLoads, r.falseDepLoads);
    EXPECT_EQ(back.falseDepLatency, r.falseDepLatency);
    EXPECT_EQ(back.injectedViolations, r.injectedViolations);
    EXPECT_EQ(back.cpiSlots, r.cpiSlots);
    EXPECT_EQ(back.commitWidth, r.commitWidth);
    EXPECT_EQ(back.ok, r.ok);
    EXPECT_EQ(back.error, r.error);
    EXPECT_EQ(back.failKind, r.failKind);
    EXPECT_EQ(back.failDetail, r.failDetail);
    EXPECT_EQ(back.injectedHostFault, r.injectedHostFault);
    EXPECT_EQ(back.diagnostic, r.diagnostic);
    EXPECT_EQ(back.depProfiled, r.depProfiled);
    EXPECT_EQ(back.depLoads, r.depLoads);
    EXPECT_EQ(back.depStores, r.depStores);
    EXPECT_EQ(back.depEdges, r.depEdges);
    EXPECT_EQ(back.depHotEdges, r.depHotEdges);
    EXPECT_EQ(back.wallMs, r.wallMs);
    EXPECT_EQ(back.queueMs, r.queueMs);
    EXPECT_EQ(back.cacheHit, r.cacheHit);

    // Every field is required: dropping any one rejects the record.
    for (const auto &[key, value] : fields) {
        std::map<std::string, std::string> less = fields;
        less.erase(key);
        bool derived = key == "ipc" || key == "sim_cycles_per_sec";
        EXPECT_EQ(sweep::runRecordParseWithEnvelope(less, back, fp, scale),
                  derived)
            << key;
    }
}

using Mutation = std::function<void(RunResult &)>;

/** diffRunRecords of distinctResult() against a @p mutate'd copy. */
sweep::DiffResult
diffAfter(const Mutation &mutate)
{
    ReportRecord base;
    base.run = distinctResult();
    base.run.ok = true;
    base.scale = 2000;
    ReportRecord cur = base;
    mutate(cur.run);
    return sweep::diffRunRecords({base}, {cur});
}

TEST(RunRecordDiff, FlagsEachSimulatedFieldAndIgnoresHostFields)
{
    const std::vector<std::pair<std::string, Mutation>> compared = {
        {"ok", [](RunResult &r) { r.ok = false; }},
        {"error", [](RunResult &r) { r.error += "!"; }},
        {"cycles", [](RunResult &r) { ++r.cycles; }},
        {"commits", [](RunResult &r) { ++r.commits; }},
        {"committedLoads", [](RunResult &r) { ++r.committedLoads; }},
        {"committedStores", [](RunResult &r) { ++r.committedStores; }},
        {"violations", [](RunResult &r) { ++r.violations; }},
        {"replays", [](RunResult &r) { ++r.replays; }},
        {"selectiveRecoveries",
         [](RunResult &r) { ++r.selectiveRecoveries; }},
        {"selectiveFallbacks",
         [](RunResult &r) { ++r.selectiveFallbacks; }},
        {"branchMispredicts",
         [](RunResult &r) { ++r.branchMispredicts; }},
        {"squashedInsts", [](RunResult &r) { ++r.squashedInsts; }},
        {"falseDepLoads", [](RunResult &r) { ++r.falseDepLoads; }},
        {"falseDepLatency",
         [](RunResult &r) { r.falseDepLatency += 0.5; }},
        {"injectedViolations",
         [](RunResult &r) { ++r.injectedViolations; }},
        {"fail_kind",
         [](RunResult &r) { r.failKind = harness::FailKind::Crash; }},
        {"commit_width", [](RunResult &r) { ++r.commitWidth; }},
    };
    for (const auto &[field, mutate] : compared) {
        sweep::DiffResult d = diffAfter(mutate);
        ASSERT_EQ(d.drift.size(), 1u) << field;
        EXPECT_EQ(d.drift[0].field, field);
    }
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        sweep::DiffResult d =
            diffAfter([i](RunResult &r) { ++r.cpiSlots[i]; });
        ASSERT_EQ(d.drift.size(), 1u) << i;
        EXPECT_EQ(d.drift[0].field,
                  std::string("cpi_") + obs::statKey(obs::CpiCause(i)));
    }

    const std::vector<std::pair<std::string, Mutation>> host = {
        {"wall_ms", [](RunResult &r) { r.wallMs *= 3; }},
        {"queue_ms", [](RunResult &r) { r.queueMs += 1; }},
        {"cache_hit", [](RunResult &r) { r.cacheHit = !r.cacheHit; }},
        {"diagnostic", [](RunResult &r) { r.diagnostic += "x"; }},
        {"fail_detail", [](RunResult &r) { r.failDetail += "x"; }},
        {"fail_injected",
         [](RunResult &r) { r.injectedHostFault = false; }},
        {"dep_profiled", [](RunResult &r) { r.depProfiled = false; }},
        {"dep_loads", [](RunResult &r) { ++r.depLoads; }},
        {"dep_stores", [](RunResult &r) { ++r.depStores; }},
        {"dep_edges", [](RunResult &r) { ++r.depEdges; }},
        {"dep_hot_edges", [](RunResult &r) { r.depHotEdges.clear(); }},
    };
    for (const auto &[field, mutate] : host) {
        sweep::DiffResult d = diffAfter(mutate);
        EXPECT_TRUE(d.clean()) << field << ": "
                               << sweep::formatDiff(d);
        EXPECT_EQ(d.compared, 1u);
    }
}

// ---------------------------------------------------------------------
// Dependence profiles.
// ---------------------------------------------------------------------

TEST(DepProfileFormat, Fig6CompressProfileMatchesCommittedBytes)
{
    // Figure 6's three configs on 129.compress at scale 2000, run in
    // the bench's order; the committed file has every record kind.
    std::string path = "formats_test." + std::to_string(::getpid()) +
                       ".depprof.jsonl";
    std::filesystem::remove(path);
    obs::DepProfManager &mgr = obs::DepProfManager::instance();
    mgr.resetForTesting();
    mgr.enable(path);
    {
        harness::Runner runner(2000);
        for (SpecPolicy p : {SpecPolicy::Naive, SpecPolicy::SpecSync,
                             SpecPolicy::Oracle}) {
            RunResult r = runner.run(
                "129.compress",
                withPolicy(makeW128Config(), LsqModel::NAS, p));
            EXPECT_TRUE(r.ok) << r.error;
        }
    }
    mgr.resetForTesting();

    std::ifstream in(path, std::ios::binary);
    std::ostringstream written;
    written << in.rdbuf();
    std::filesystem::remove(path);
    const std::string golden =
        readSource("tests/golden/fig6_compress_scale2000.depprof.jsonl");
    EXPECT_EQ(written.str(), golden);

    mdp::DepProfileFile file;
    EXPECT_TRUE(file.parseLines(split(golden, '\n')));
    EXPECT_EQ(file.runs().size(), 3u);
}

} // anonymous namespace
} // namespace cwsim
