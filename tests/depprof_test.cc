/**
 * @file
 * Tests for the speculation observatory's wire format: DepProfile
 * collection and serialization, the strict DepProfileFile
 * loader/validator (torn blocks, interleaved runs, version drift),
 * the hot-edge encoding, and the DepProfManager file writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "base/jsonl.hh"
#include "mdp/dep_profile.hh"
#include "obs/depprof.hh"
#include "sim/stats.hh"

namespace cwsim
{
namespace
{

using mdp::DepProfileFile;
using mdp::DepProfileRun;
using obs::DepProfile;

/** Scratch directory in the build tree, removed on destruction. */
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

/** A profile with one of everything, the test-suite fixture. */
DepProfile
makeProfile(const std::string &run = "129.compress NAS/NAV W128")
{
    DepProfile prof("proc", run);
    prof.noteLoadExec(0x100, true);
    prof.noteLoadExec(0x100, false);
    prof.noteLoadExec(0x104, false);
    prof.noteLoadReplay(0x104);
    prof.noteSelHold(0x100);
    prof.noteBarrierHold(0x104);
    prof.noteLoadCommit(0x100);
    prof.noteLoadCommit(0x104);
    prof.noteFalseDep(0x100, 7);
    prof.noteTrueDep(0x104);
    prof.noteStoreCommit(0x200);
    prof.noteStoreBarrier(0x200);
    prof.noteViolation(0x200, 0x100, 5, true);
    prof.noteViolation(0x200, 0x100, 9, false);
    prof.noteViolation(0x200, 0x104, 3, true);
    prof.noteSyncWait(0x104, 0x200, 12);
    prof.noteMdptAlloc(0x100);
    prof.noteMdptEvict(0x104);
    prof.noteMdptPair(0x100, 0x200, false);
    prof.noteMdptPair(0x100, 0x200, true);
    prof.noteMdptMissSpec(0x100);
    prof.noteMdptSample(1000, 3, 0.5);
    prof.noteMdptSample(2000, 5, 0.75);
    return prof;
}

TEST(DepDistBucket, Log2GeometryAndLabels)
{
    EXPECT_EQ(obs::depDistBucket(0), 0u);
    EXPECT_EQ(obs::depDistBucket(1), 0u);
    EXPECT_EQ(obs::depDistBucket(2), 1u);
    EXPECT_EQ(obs::depDistBucket(3), 1u);
    EXPECT_EQ(obs::depDistBucket(4), 2u);
    EXPECT_EQ(obs::depDistBucket(7), 2u);
    EXPECT_EQ(obs::depDistBucket(8), 3u);
    EXPECT_EQ(obs::depDistBucket(2047), 10u);
    EXPECT_EQ(obs::depDistBucket(2048), 11u);
    // The last bucket is open-ended.
    EXPECT_EQ(obs::depDistBucket(1ull << 40), 11u);

    EXPECT_EQ(obs::depDistBucketLabel(0), "0-1");
    EXPECT_EQ(obs::depDistBucketLabel(1), "2-3");
    EXPECT_EQ(obs::depDistBucketLabel(2), "4-7");
    EXPECT_EQ(obs::depDistBucketLabel(11), "2048+");
}

TEST(DepProfile, CollectsAndSerializesRoundTrip)
{
    DepProfile prof = makeProfile();
    EXPECT_EQ(prof.numLoads(), 2u);
    EXPECT_EQ(prof.numStores(), 1u);
    EXPECT_EQ(prof.numEdges(), 2u);

    std::vector<std::string> lines;
    prof.serialize(lines);
    // header + 2 loads + 1 store + 2 edges + 3 mdpt pcs + 2 samples.
    ASSERT_EQ(lines.size(), 11u);

    DepProfileFile file;
    ASSERT_TRUE(file.parseLines(lines))
        << (file.errors().empty() ? "" : file.errors().front());
    ASSERT_EQ(file.runs().size(), 1u);
    const DepProfileRun &run = file.runs().front();
    EXPECT_EQ(run.run, "129.compress NAS/NAV W128");
    EXPECT_EQ(run.sim, "proc");

    // Load counters survive intact.
    ASSERT_EQ(run.loads.size(), 2u);
    const obs::DepLoadCounters &l100 = run.loads.at(0x100);
    EXPECT_EQ(l100.execs.value(), 2u);
    EXPECT_EQ(l100.forwards.value(), 1u);
    EXPECT_EQ(l100.violations.value(), 2u);
    EXPECT_EQ(l100.selHolds.value(), 1u);
    EXPECT_EQ(l100.falseDepLoads.value(), 1u);
    EXPECT_EQ(l100.falseDepCycles.value(), 7u);
    EXPECT_EQ(l100.commits.value(), 1u);
    const obs::DepLoadCounters &l104 = run.loads.at(0x104);
    EXPECT_EQ(l104.replays.value(), 1u);
    EXPECT_EQ(l104.barrierHolds.value(), 1u);
    EXPECT_EQ(l104.syncWaits.value(), 1u);
    EXPECT_EQ(l104.trueDepLoads.value(), 1u);

    // Store counters.
    ASSERT_EQ(run.stores.size(), 1u);
    const obs::DepStoreCounters &s200 = run.stores.at(0x200);
    EXPECT_EQ(s200.commits.value(), 1u);
    EXPECT_EQ(s200.violationsCaused.value(), 3u);
    EXPECT_EQ(s200.barriers.value(), 1u);
    EXPECT_EQ(s200.syncProduces.value(), 1u);

    // Edge counters, overlap kinds, and the distance histogram.
    ASSERT_EQ(run.edges.size(), 2u);
    const obs::DepEdgeCounters &e100 =
        run.edges.at(obs::DepEdgeKey(0x200, 0x100));
    EXPECT_EQ(e100.violations.value(), 2u);
    EXPECT_EQ(e100.fullOverlaps.value(), 1u);
    EXPECT_EQ(e100.partialOverlaps.value(), 1u);
    EXPECT_EQ(e100.dist[obs::depDistBucket(5)], 1u);
    EXPECT_EQ(e100.dist[obs::depDistBucket(9)], 1u);
    const obs::DepEdgeCounters &e104 =
        run.edges.at(obs::DepEdgeKey(0x200, 0x104));
    EXPECT_EQ(e104.violations.value(), 1u);
    EXPECT_EQ(e104.syncs.value(), 1u);
    EXPECT_EQ(e104.dist[obs::depDistBucket(3)], 1u);
    EXPECT_EQ(e104.dist[obs::depDistBucket(12)], 1u);

    // MDPT introspection: pair() counts both sides, merges subset.
    ASSERT_EQ(run.mdpt.size(), 3u);
    EXPECT_EQ(run.mdpt.at(0x100).allocs.value(), 1u);
    EXPECT_EQ(run.mdpt.at(0x100).pairs.value(), 2u);
    EXPECT_EQ(run.mdpt.at(0x100).merges.value(), 1u);
    EXPECT_EQ(run.mdpt.at(0x100).missSpecs.value(), 1u);
    EXPECT_EQ(run.mdpt.at(0x104).evicts.value(), 1u);
    EXPECT_EQ(run.mdpt.at(0x200).pairs.value(), 2u);

    ASSERT_EQ(run.mdptSamples.size(), 2u);
    EXPECT_EQ(run.mdptSamples[0].cycle, 1000u);
    EXPECT_EQ(run.mdptSamples[0].occupancy, 3u);
    EXPECT_DOUBLE_EQ(run.mdptSamples[0].meanConfidence, 0.5);
    EXPECT_DOUBLE_EQ(run.mdptSamples[1].meanConfidence, 0.75);

    EXPECT_NE(file.findRun("129.compress NAS/NAV W128"), nullptr);
    EXPECT_EQ(file.findRun("no such run"), nullptr);
}

TEST(DepProfile, HotEdgesRankedAndCapped)
{
    DepProfile prof("proc", "r");
    prof.noteViolation(0x200, 0x100, 5, true); // 1 violation
    prof.noteViolation(0x210, 0x100, 5, true); // 2 violations
    prof.noteViolation(0x210, 0x100, 5, true);
    prof.noteSyncWait(0x104, 0x220, 2);        // 0 violations, 1 sync

    // Ranked by violations desc, then syncs desc, then key.
    EXPECT_EQ(prof.hotEdges(8),
              "0x210-0x100:2:0;0x200-0x100:1:0;0x220-0x104:0:1");
    EXPECT_EQ(prof.hotEdges(1), "0x210-0x100:2:0");
    EXPECT_EQ(prof.hotEdges(0), "");
    EXPECT_EQ(DepProfile("proc", "empty").hotEdges(8), "");
}

TEST(DepProfile, RegistersPerPcStatsUnderParentGroup)
{
    // With a stats parent, per-PC load/store counters appear in the
    // flat-JSON stats export under "<parent>.depprof.*" with hex-PC
    // key segments (the proc path; split passes no parent).
    stats::StatGroup root("proc");
    DepProfile prof("proc", "r", &root);
    prof.noteLoadExec(0x1a2b, true);
    prof.noteViolation(0x40, 0x1a2b, 2, true);
    prof.noteStoreCommit(0x40);

    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(root.jsonString(), fields));
    EXPECT_EQ(fields.at("proc.depprof.load_0x1a2b.execs"), "1");
    EXPECT_EQ(fields.at("proc.depprof.load_0x1a2b.forwards"), "1");
    EXPECT_EQ(fields.at("proc.depprof.load_0x1a2b.violations"), "1");
    EXPECT_EQ(fields.at("proc.depprof.store_0x40.commits"), "1");
    EXPECT_EQ(fields.at("proc.depprof.store_0x40.violations_caused"),
              "1");

    // Stats-less profiles (no parent) collect identically.
    DepProfile bare("split", "r");
    bare.noteLoadExec(0x1a2b, true);
    EXPECT_EQ(bare.numLoads(), 1u);
}

TEST(DepProfileFile, RejectsUnknownVersion)
{
    std::vector<std::string> lines;
    makeProfile().serialize(lines);
    // Every line starts with {"v":1, — stamp a future version.
    ASSERT_EQ(lines[0].find("{\"v\":1,"), 0u);
    lines[0].replace(0, 7, "{\"v\":9,");

    DepProfileFile file;
    EXPECT_FALSE(file.parseLines(lines));
    ASSERT_FALSE(file.errors().empty());
    EXPECT_NE(file.errors().front().find("unsupported profile version"),
              std::string::npos);
}

TEST(DepProfileFile, DetectsTornHeaderCounts)
{
    std::vector<std::string> lines;
    makeProfile().serialize(lines);

    // Drop the last record: the header promised more than the block
    // carries, the signature of a truncated (torn) profile.
    lines.pop_back();
    DepProfileFile file;
    EXPECT_FALSE(file.parseLines(lines));
    ASSERT_FALSE(file.errors().empty());
    EXPECT_NE(file.errors().front().find("header promised"),
              std::string::npos);
    // The damaged run is still surfaced (salvage, not silence).
    EXPECT_EQ(file.runs().size(), 1u);
}

TEST(DepProfileFile, DetectsInterleavedRuns)
{
    std::vector<std::string> a, b;
    makeProfile("run-a").serialize(a);
    makeProfile("run-b").serialize(b);

    // Interleave: a's header, then one of b's records inside a's block.
    std::vector<std::string> lines;
    lines.push_back(a[0]);
    lines.push_back(b[1]);
    DepProfileFile file;
    EXPECT_FALSE(file.parseLines(lines));
    bool flagged = false;
    for (const std::string &e : file.errors())
        flagged |= e.find("interleaved") != std::string::npos;
    EXPECT_TRUE(flagged);

    // Two complete blocks back to back validate fine.
    lines = a;
    lines.insert(lines.end(), b.begin(), b.end());
    DepProfileFile both;
    EXPECT_TRUE(both.parseLines(lines))
        << (both.errors().empty() ? "" : both.errors().front());
    ASSERT_EQ(both.runs().size(), 2u);
    EXPECT_NE(both.findRun("run-a"), nullptr);
    EXPECT_NE(both.findRun("run-b"), nullptr);
}

TEST(DepProfileFile, RejectsRecordsBeforeAnyHeader)
{
    std::vector<std::string> lines;
    makeProfile().serialize(lines);
    lines.erase(lines.begin()); // headerless block
    DepProfileFile file;
    EXPECT_FALSE(file.parseLines(lines));
    ASSERT_FALSE(file.errors().empty());
    EXPECT_NE(file.errors().front().find("before any header"),
              std::string::npos);
}

TEST(DepProfileFile, RejectsMalformedDistHistograms)
{
    // A hand-built minimal block with one edge whose dist field is
    // fed every malformed shape in turn.
    auto block = [](const std::string &dist) {
        std::vector<std::string> lines;
        lines.push_back(
            "{\"v\":1,\"kind\":\"header\",\"run\":\"r\",\"sim\":"
            "\"proc\",\"loads\":0,\"stores\":0,\"edges\":1,"
            "\"mdpt_pcs\":0,\"mdpt_samples\":0}");
        lines.push_back(
            "{\"v\":1,\"kind\":\"edge\",\"run\":\"r\",\"store_pc\":"
            "\"0x200\",\"load_pc\":\"0x100\",\"violations\":1,"
            "\"syncs\":0,\"full_overlaps\":1,\"partial_overlaps\":0,"
            "\"dist\":\"" + dist + "\"}");
        return lines;
    };

    DepProfileFile ok;
    EXPECT_TRUE(ok.parseLines(block("2:1")));
    EXPECT_TRUE(ok.parseLines(block("0:3;11:2")));
    // "" is a legal (all-zero) histogram, and a trailing ';' is
    // tolerated (the decoder consumes entries, not separators).
    EXPECT_TRUE(ok.parseLines(block("")));
    EXPECT_TRUE(ok.parseLines(block("2:1;")));

    for (const char *bad :
         {"2", "2:", ":1", "2:0", "99:1", "2:1;2:1", "2:x", "x:1",
          "2:-1", "+2:1", "2: 1"}) {
        DepProfileFile file;
        EXPECT_FALSE(file.parseLines(block(bad))) << bad;
    }
}

TEST(DepProfManager, WritesBlocksTheLoaderValidates)
{
    ScratchDir dir("depprof_mgr_test");
    std::string path = dir.path + "/test.depprof.jsonl";

    obs::DepProfManager &mgr = obs::DepProfManager::instance();
    mgr.resetForTesting();
    EXPECT_FALSE(mgr.active());
    EXPECT_FALSE(obs::depProfilingActive());

    mgr.enable(path);
    EXPECT_TRUE(mgr.active());
    EXPECT_TRUE(obs::depProfilingActive());
    EXPECT_EQ(mgr.path(), path);

    mgr.writeRun(makeProfile("run-one"));
    mgr.writeRun(makeProfile("run-two"));
    mgr.resetForTesting();
    EXPECT_FALSE(obs::depProfilingActive());

    DepProfileFile file;
    std::string err;
    ASSERT_TRUE(file.load(path, &err)) << err;
    EXPECT_TRUE(file.valid());
    ASSERT_EQ(file.runs().size(), 2u);
    EXPECT_NE(file.findRun("run-one"), nullptr);
    EXPECT_NE(file.findRun("run-two"), nullptr);
    // Both blocks carry the same profile; spot-check the second.
    EXPECT_EQ(file.findRun("run-two")->loads.size(), 2u);
    EXPECT_EQ(file.findRun("run-two")->edges.size(), 2u);
}

TEST(DepProfManager, LoadReportsUnreadableFiles)
{
    DepProfileFile file;
    std::string err;
    EXPECT_FALSE(file.load("no/such/file.depprof.jsonl", &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
    EXPECT_TRUE(file.errors().empty());
}

TEST(DepProfManager, EnableUsesDefaultPathForEmptyString)
{
    obs::DepProfManager &mgr = obs::DepProfManager::instance();
    mgr.resetForTesting();
    mgr.enable();
    EXPECT_EQ(mgr.path(), "cwsim.depprof.jsonl");
    mgr.resetForTesting();
}

} // anonymous namespace
} // namespace cwsim
