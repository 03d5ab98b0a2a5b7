/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, the
 * statistics package, the table formatter and configuration presets.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/jsonl.hh"
#include "sim/config.hh"
#include "sim/config_parse.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/table.hh"

namespace cwsim
{
namespace
{

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(10); });
    eq.schedule(5, [&] { order.push_back(5); });
    eq.schedule(7, [&] { order.push_back(7); });
    eq.runUntil(20);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 5);
    EXPECT_EQ(order[1], 7);
    EXPECT_EQ(order[2], 10);
    EXPECT_EQ(eq.curTick(), 20u);
}

TEST(EventQueueTest, SameTickUsesPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3, [&] { order.push_back(1); }, 1);
    eq.schedule(3, [&] { order.push_back(0); }, 0);
    eq.schedule(3, [&] { order.push_back(2); }, 1);
    eq.runUntil(3);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(6, [&] { ++fired; });
    eq.runUntil(5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(6);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, EventsMayScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> fired_at;
    eq.schedule(2, [&] {
        fired_at.push_back(eq.curTick());
        eq.scheduleIn(3, [&] { fired_at.push_back(eq.curTick()); });
        eq.scheduleIn(0, [&] { fired_at.push_back(eq.curTick()); });
    });
    eq.runUntil(10);
    ASSERT_EQ(fired_at.size(), 3u);
    EXPECT_EQ(fired_at[0], 2u);
    EXPECT_EQ(fired_at[1], 2u); // zero-delay event fires at same tick
    EXPECT_EQ(fired_at[2], 5u);
}

TEST(EventQueueTest, DrainRunsEverything)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1000, [&] { ++fired; });
    eq.schedule(2000, [&] { ++fired; });
    eq.drain();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 2000u);
}

TEST(EventQueueTest, ResetClearsCounters)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    eq.runUntil(1);
    EXPECT_EQ(eq.scheduledCount(), 2u);
    EXPECT_EQ(eq.firedCount(), 1u);

    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    // A reused queue must start its statistics from zero, not bleed
    // counts from the previous run.
    EXPECT_EQ(eq.scheduledCount(), 0u);
    EXPECT_EQ(eq.firedCount(), 0u);

    eq.schedule(3, [&] { ++fired; });
    eq.runUntil(3);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.scheduledCount(), 1u);
    EXPECT_EQ(eq.firedCount(), 1u);
}

TEST(EventQueueTest, FarFutureEventsInterleaveWithNearOnes)
{
    // Events scheduled hundreds or thousands of ticks out, in no
    // particular order, must fire in global (tick, priority,
    // insertion) order alongside near ones.
    EventQueue eq;
    std::vector<Tick> fired_at;
    auto rec = [&] { fired_at.push_back(eq.curTick()); };
    eq.schedule(5000, rec);
    eq.schedule(3, rec);
    eq.schedule(1000, rec);
    eq.schedule(999, rec);
    eq.runUntil(10000);
    ASSERT_EQ(fired_at.size(), 4u);
    EXPECT_EQ(fired_at[0], 3u);
    EXPECT_EQ(fired_at[1], 999u);
    EXPECT_EQ(fired_at[2], 1000u);
    EXPECT_EQ(fired_at[3], 5000u);
    EXPECT_EQ(eq.firedCount(), 4u);
}

TEST(EventQueueTest, SameTickOrderSpansBothLanes)
{
    // Two events at the same tick, one scheduled far in advance and
    // two scheduled later from nearby: priority then insertion order
    // must still decide, whenever each was scheduled.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(400, [&] { order.push_back(1); }, 1); // far in advance
    eq.schedule(200, [&] {
        eq.schedule(400, [&] { order.push_back(0); }, 0); // from nearby
        eq.schedule(400, [&] { order.push_back(2); }, 1);
    });
    eq.runUntil(400);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
}

TEST(EventQueueTest, EqualTickFifoHoldsAcrossRecycledSlots)
{
    // Firing frees callback slots that later schedules reuse; a reused
    // slot must not change the order: equal ticks still fire in
    // insertion order, whichever slots their callbacks landed in.
    EventQueue eq;
    std::vector<int> order;
    int next_id = 0;
    for (Tick t = 1; t <= 50; ++t) {
        // A few events fire and free their slots, then more arrive at
        // a shared later tick, interleaved with the firing.
        for (int k = 0; k < 3; ++k) {
            int id = next_id++;
            eq.schedule(t, [&order, id] { order.push_back(id); });
        }
        for (int k = 0; k < 2; ++k) {
            int id = next_id++;
            eq.schedule(100, [&order, id] { order.push_back(id); });
        }
        eq.runUntil(t);
    }
    eq.runUntil(100);
    ASSERT_EQ(order.size(), static_cast<size_t>(next_id));
    // The tick-t events fire at t in insertion order; the tick-100
    // events fire last, also in insertion order.
    std::vector<int> expect;
    for (int t = 0; t < 50; ++t) {
        for (int k = 0; k < 3; ++k)
            expect.push_back(5 * t + k);
    }
    for (int t = 0; t < 50; ++t) {
        for (int k = 3; k < 5; ++k)
            expect.push_back(5 * t + k);
    }
    EXPECT_EQ(order, expect);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, CallbackThatGrowsThePoolFiresEverythingInOrder)
{
    // One firing callback schedules 1,000 events: the callback pool
    // grows (and relocates) while that callback runs.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> fired;
    eq.schedule(5, [&] {
        for (int i = 0; i < 1000; ++i) {
            eq.scheduleIn(static_cast<Cycles>(i % 7), [&fired, &eq, i] {
                fired.emplace_back(eq.curTick(), i);
            });
        }
    });
    eq.runUntil(5); // runs the 143 zero-delay events too
    EXPECT_EQ(eq.size(), 857u);
    eq.drain();
    ASSERT_EQ(fired.size(), 1000u);
    // By tick, then by insertion order within a tick.
    std::vector<std::pair<Tick, int>> expect;
    for (int d = 0; d < 7; ++d) {
        for (int i = d; i < 1000; i += 7)
            expect.emplace_back(5 + d, i);
    }
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(eq.scheduledCount(), 1001u);
    EXPECT_EQ(eq.firedCount(), 1001u);
}

TEST(EventQueueTest, ResetWithEventsPendingThenReuse)
{
    EventQueue eq;
    int stale = 0;
    for (Tick t = 1; t <= 40; ++t)
        eq.schedule(t * 3, [&stale] { ++stale; });
    eq.runUntil(30); // ten fire, thirty stay pending
    EXPECT_EQ(stale, 10);
    EXPECT_EQ(eq.size(), 30u);

    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);

    // Nothing of the discarded events fires, and the reused queue
    // keeps the ordering contract from tick 0.
    std::vector<int> order;
    eq.schedule(2, [&] { order.push_back(2); });
    eq.schedule(1, [&] { order.push_back(0); });
    eq.schedule(1, [&] { order.push_back(1); });
    eq.drain();
    EXPECT_EQ(stale, 10);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.scheduledCount(), 3u);
    EXPECT_EQ(eq.firedCount(), 3u);
    EXPECT_EQ(eq.curTick(), 2u);
}

TEST(StatsTest, ScalarAccumulates)
{
    stats::Scalar s;
    ++s;
    s += 9;
    EXPECT_EQ(s.value(), 10u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(StatsTest, AverageMean)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(StatsTest, DistributionBuckets)
{
    stats::Distribution d;
    d.init(0, 100, 10);
    d.sample(-5);   // underflow
    d.sample(0);    // bucket 0
    d.sample(9.9);  // bucket 0
    d.sample(55);   // bucket 5
    d.sample(100);  // overflow (exclusive upper bound)
    d.sample(250);  // overflow
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 2u);
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.bucketCount(5), 1u);
    EXPECT_EQ(d.count(), 6u);
    EXPECT_DOUBLE_EQ(d.minSample(), -5);
    EXPECT_DOUBLE_EQ(d.maxSample(), 250);
}

TEST(StatsTest, GroupLookupAndDump)
{
    stats::StatGroup root("cpu");
    stats::Scalar commits;
    stats::Average ipc;
    commits += 7;
    ipc.sample(1.5);
    root.addScalar("commits", &commits, "committed instructions");
    root.addAverage("ipc", &ipc);
    EXPECT_EQ(root.scalarValue("commits"), 7u);
    EXPECT_DOUBLE_EQ(root.averageMean("ipc"), 1.5);
    EXPECT_TRUE(root.hasScalar("commits"));
    EXPECT_FALSE(root.hasScalar("nonesuch"));

    std::ostringstream oss;
    root.dump(oss);
    EXPECT_NE(oss.str().find("cpu.commits"), std::string::npos);
    EXPECT_NE(oss.str().find("committed instructions"), std::string::npos);
}

TEST(StatsTest, NestedGroupNames)
{
    stats::StatGroup root("system");
    stats::StatGroup child("l1d", &root);
    stats::Scalar hits;
    child.addScalar("hits", &hits);
    EXPECT_EQ(child.fullName(), "system.l1d");
    std::ostringstream oss;
    root.dump(oss);
    EXPECT_NE(oss.str().find("system.l1d.hits"), std::string::npos);
}

TEST(StatsTest, DistributionEdgeCases)
{
    stats::Distribution d;
    d.init(10, 20, 1); // single bucket [10, 20)
    EXPECT_EQ(d.numBuckets(), 1u);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);

    d.sample(9.999); // just under: underflow
    d.sample(10);    // inclusive lower bound
    d.sample(19.99); // still in the bucket
    d.sample(20);    // exclusive upper bound: overflow
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.count(), 4u);
    // Under/overflow samples still shape min/max/sum/mean.
    EXPECT_DOUBLE_EQ(d.minSample(), 9.999);
    EXPECT_DOUBLE_EQ(d.maxSample(), 20.0);
    EXPECT_DOUBLE_EQ(d.sum(), 9.999 + 10 + 19.99 + 20);
    EXPECT_DOUBLE_EQ(d.mean(), d.sum() / 4);

    // Reset clears everything, including min/max.
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.underflows(), 0u);
    EXPECT_EQ(d.overflows(), 0u);
    EXPECT_EQ(d.bucketCount(0), 0u);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);
    d.sample(15);
    EXPECT_DOUBLE_EQ(d.minSample(), 15.0);
    EXPECT_DOUBLE_EQ(d.maxSample(), 15.0);
    EXPECT_EQ(d.bucketCount(0), 1u);
}

TEST(StatsTest, GroupHasAndFindByFullyQualifiedName)
{
    stats::StatGroup root("proc");
    stats::StatGroup child("mdpt", &root);
    stats::Scalar commits;
    stats::Average delay;
    stats::Distribution occ;
    stats::Scalar allocs;
    commits += 11;
    delay.sample(4);
    occ.init(0, 128, 8);
    occ.sample(64);
    allocs += 3;
    root.addScalar("commits", &commits);
    root.addAverage("loadIssueDelay", &delay);
    root.addDistribution("windowOccupancy", &occ);
    child.addScalar("allocations", &allocs);

    EXPECT_TRUE(root.hasAverage("loadIssueDelay"));
    EXPECT_FALSE(root.hasAverage("commits")); // wrong kind
    EXPECT_TRUE(root.hasDistribution("windowOccupancy"));
    EXPECT_FALSE(root.hasDistribution("nonesuch"));

    ASSERT_NE(root.findScalar("proc.commits"), nullptr);
    EXPECT_EQ(root.findScalar("proc.commits")->value(), 11u);
    ASSERT_NE(root.findAverage("proc.loadIssueDelay"), nullptr);
    ASSERT_NE(root.findDistribution("proc.windowOccupancy"), nullptr);
    // Through a child group.
    ASSERT_NE(root.findScalar("proc.mdpt.allocations"), nullptr);
    EXPECT_EQ(root.findScalar("proc.mdpt.allocations")->value(), 3u);
    // Probing misses returns nullptr, no panic.
    EXPECT_EQ(root.findScalar("proc.nonesuch"), nullptr);
    EXPECT_EQ(root.findScalar("commits"), nullptr); // must be FQ
    EXPECT_EQ(root.findScalar("other.commits"), nullptr);
    EXPECT_EQ(root.findAverage("proc.commits"), nullptr); // wrong kind
}

TEST(StatsTest, JsonExportRoundTripsThroughFlatJsonParser)
{
    stats::StatGroup root("proc");
    stats::StatGroup child("mdpt", &root);
    stats::Scalar commits;
    stats::Average delay;
    stats::Distribution occ;
    stats::Scalar allocs;
    commits += 123;
    delay.sample(2);
    delay.sample(4);
    occ.init(0, 4, 2);
    occ.sample(-1); // underflow
    occ.sample(1);  // bucket 0
    occ.sample(3);  // bucket 1
    occ.sample(9);  // overflow
    allocs += 7;
    root.addScalar("commits", &commits);
    root.addAverage("loadIssueDelay", &delay);
    root.addDistribution("windowOccupancy", &occ);
    child.addScalar("allocations", &allocs);

    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(root.jsonString(), fields));
    EXPECT_EQ(fields.at("proc.commits"), "123");
    EXPECT_EQ(fields.at("proc.mdpt.allocations"), "7");
    EXPECT_DOUBLE_EQ(std::stod(fields.at("proc.loadIssueDelay.mean")),
                     3.0);
    EXPECT_EQ(fields.at("proc.loadIssueDelay.count"), "2");
    EXPECT_DOUBLE_EQ(
        std::stod(fields.at("proc.windowOccupancy.mean")), 3.0);
    EXPECT_EQ(fields.at("proc.windowOccupancy.count"), "4");
    EXPECT_DOUBLE_EQ(std::stod(fields.at("proc.windowOccupancy.min")),
                     -1.0);
    EXPECT_DOUBLE_EQ(std::stod(fields.at("proc.windowOccupancy.max")),
                     9.0);
    EXPECT_EQ(fields.at("proc.windowOccupancy.underflow"), "1");
    EXPECT_EQ(fields.at("proc.windowOccupancy.overflow"), "1");
    EXPECT_EQ(fields.at("proc.windowOccupancy.bucket0"), "1");
    EXPECT_EQ(fields.at("proc.windowOccupancy.bucket1"), "1");
}

TEST(StatsTest, HexPcKeySegmentsSurviveJsonExport)
{
    // The dependence observatory registers per-PC counters whose key
    // segments embed hex PCs ("depprof.load_0x1a2b.execs"). Those keys
    // must survive the flat-JSON export byte-exact at the edges: PC 0,
    // an all-ones 64-bit PC, and mixed-case hex digits.
    stats::StatGroup root("proc");
    stats::StatGroup depprof("depprof", &root);
    stats::Scalar zero, big, mixed;
    zero += 1;
    big += 2;
    mixed += 3;
    depprof.addScalar("load_0x0.execs", &zero);
    depprof.addScalar("load_0xffffffffffffffff.violations", &big);
    depprof.addScalar("store_0xdeadBEEF.commits", &mixed);

    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(root.jsonString(), fields));
    EXPECT_EQ(fields.at("proc.depprof.load_0x0.execs"), "1");
    EXPECT_EQ(
        fields.at("proc.depprof.load_0xffffffffffffffff.violations"),
        "2");
    EXPECT_EQ(fields.at("proc.depprof.store_0xdeadBEEF.commits"), "3");
    // And the find API resolves them like any other stat.
    ASSERT_NE(root.findScalar("proc.depprof.load_0x0.execs"), nullptr);
    EXPECT_EQ(root.findScalar("proc.depprof.load_0x0.execs")->value(),
              1u);
}

TEST(TableTest, AlignsColumns)
{
    TextTable t;
    t.setHeader({"Program", "IPC"});
    t.addRow({"099.go", "1.23"});
    t.addRow({"147.vortex", "2.5"});
    std::string s = t.toString();
    EXPECT_NE(s.find("| Program"), std::string::npos);
    EXPECT_NE(s.find("099.go"), std::string::npos);
    // Right-aligned numeric column.
    EXPECT_NE(s.find(" 1.23 |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TableTest, SeparatorRows)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    t.addSeparator();
    t.addRow({"3", "4"});
    std::string s = t.toString();
    // header sep + top + bottom + explicit = at least 4 separator lines
    size_t count = 0;
    for (size_t pos = s.find("+--"); pos != std::string::npos;
         pos = s.find("+--", pos + 1)) {
        ++count;
    }
    EXPECT_GE(count, 4u);
}

TEST(ConfigTest, W128Defaults)
{
    SimConfig cfg = makeW128Config();
    EXPECT_EQ(cfg.core.windowSize, 128u);
    EXPECT_EQ(cfg.core.issueWidth, 8u);
    EXPECT_EQ(cfg.core.memPorts, 4u);
    EXPECT_EQ(cfg.core.fuCopies, 8u);
    EXPECT_EQ(cfg.mem.dcache.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.mem.icache.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.mem.l2.sizeBytes, 4u * 1024 * 1024);
    EXPECT_EQ(cfg.bpred.gselectHistoryBits, 5u);
}

TEST(ConfigTest, W64Derivation)
{
    // Figure 1: "derived from Table 2, by reducing issue width to 4,
    // load/store ports to 2, and all functional units to 2."
    SimConfig cfg = makeW64Config();
    EXPECT_EQ(cfg.core.windowSize, 64u);
    EXPECT_EQ(cfg.core.issueWidth, 4u);
    EXPECT_EQ(cfg.core.memPorts, 2u);
    EXPECT_EQ(cfg.core.fuCopies, 2u);
}

TEST(ConfigTest, PolicyNames)
{
    EXPECT_EQ(configName(LsqModel::NAS, SpecPolicy::SpecSync),
              "NAS/SYNC");
    EXPECT_EQ(configName(LsqModel::AS, SpecPolicy::Naive), "AS/NAV");
    EXPECT_EQ(configName(LsqModel::NAS, SpecPolicy::Oracle),
              "NAS/ORACLE");
    EXPECT_EQ(configName(LsqModel::AS, SpecPolicy::No), "AS/NO");
    EXPECT_EQ(configName(LsqModel::NAS, SpecPolicy::Selective),
              "NAS/SEL");
    EXPECT_EQ(configName(LsqModel::NAS, SpecPolicy::StoreBarrier),
              "NAS/STORE");
}

TEST(ConfigTest, WithPolicyApplies)
{
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::AS,
                               SpecPolicy::Naive, 2);
    EXPECT_EQ(cfg.mdp.lsqModel, LsqModel::AS);
    EXPECT_EQ(cfg.mdp.policy, SpecPolicy::Naive);
    EXPECT_EQ(cfg.mdp.asLatency, 2u);
    EXPECT_EQ(cfg.name(), "AS/NAV");
}


// ---------------------------------------------------------------------
// Config parsing.
// ---------------------------------------------------------------------

TEST(ConfigParseTest, AppliesSingleOptions)
{
    SimConfig cfg;
    applyConfigOption(cfg, "core.windowSize=256");
    applyConfigOption(cfg, "mdp.policy = SYNC");
    applyConfigOption(cfg, "mdp.lsqModel=NAS");
    applyConfigOption(cfg, "mdp.recovery=selective");
    applyConfigOption(cfg, "maxInsts=12345");
    EXPECT_EQ(cfg.core.windowSize, 256u);
    EXPECT_EQ(cfg.mdp.policy, SpecPolicy::SpecSync);
    EXPECT_EQ(cfg.mdp.recovery, RecoveryModel::Selective);
    EXPECT_EQ(cfg.maxInsts, 12345u);
}

TEST(ConfigParseTest, ParsesTextWithCommentsAndBlanks)
{
    SimConfig cfg = parseConfigText(R"(
        # a comment
        core.issueWidth = 4

        mem.memBaseLatency = 48   # trailing comment
        mdp.policy = ORACLE
        mem.dcache.sizeBytes = 0x10000
    )");
    EXPECT_EQ(cfg.core.issueWidth, 4u);
    EXPECT_EQ(cfg.mem.memBaseLatency, 48u);
    EXPECT_EQ(cfg.mdp.policy, SpecPolicy::Oracle);
    EXPECT_EQ(cfg.mem.dcache.sizeBytes, 0x10000u);
}

TEST(ConfigParseTest, BaseConfigIsPreserved)
{
    SimConfig base = makeW64Config();
    SimConfig cfg = parseConfigText("mdp.policy = NAV\n", base);
    EXPECT_EQ(cfg.core.windowSize, 64u); // untouched
    EXPECT_EQ(cfg.mdp.policy, SpecPolicy::Naive);
}

TEST(ConfigParseTest, KeyListingNonEmpty)
{
    auto keys = configKeys();
    EXPECT_GT(keys.size(), 25u);
    bool found = false;
    for (const auto &k : keys)
        found = found || k == "mdp.policy";
    EXPECT_TRUE(found);
}

TEST(ConfigParseDeathTest, UnknownKey)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigOption(cfg, "nonsense.key=1"),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(ConfigParseDeathTest, BadNumber)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigOption(cfg, "core.windowSize=grape"),
                ::testing::ExitedWithCode(1), "bad number");
    // A sign is not a digit ("-1" must not wrap to 2^64-1), and a
    // value too large for its (32-bit) field is not truncated.
    EXPECT_EXIT(applyConfigOption(cfg, "core.windowSize=-1"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(applyConfigOption(cfg, "core.windowSize=4294967304"),
                ::testing::ExitedWithCode(1), "bad number");
    // A leading zero does not switch to octal.
    applyConfigOption(cfg, "core.windowSize=010");
    EXPECT_EQ(cfg.core.windowSize, 10u);
    // Queue sizes the core cannot allocate, or cannot use, are
    // rejected rather than crashing or panicking every run.
    for (const char *opt :
         {"core.windowSize=4000000000", "core.windowSize=0",
          "core.storeBufferSize=4000000000",
          "core.storeBufferSize=0"}) {
        EXPECT_EXIT(applyConfigOption(cfg, opt),
                    ::testing::ExitedWithCode(1), "bad number")
            << opt;
    }
    applyConfigOption(cfg, "core.windowSize=4096");
    EXPECT_EQ(cfg.core.windowSize, 4096u);
    // A fault rate is a probability: not NaN, not infinite, in [0, 1],
    // and the whole value (parseDouble: no '+' sign, hex or junk).
    for (const char *rate :
         {"nan", "inf", "-0.5", "1.5", "+0.5", "0x0.8p0", "0.5x"}) {
        std::string opt =
            std::string("check.faults.storeAddrDelayRate=") + rate;
        EXPECT_EXIT(applyConfigOption(cfg, opt),
                    ::testing::ExitedWithCode(1), "bad number")
            << opt;
    }
    applyConfigOption(cfg, "check.faults.hostCrashRate=1.0");
    EXPECT_EQ(cfg.check.faults.hostCrashRate, 1.0);
}

TEST(ConfigParseDeathTest, ZeroDivisorsAndWideHistoryAreRejected)
{
    // Associativities and the RAS depth are divisors (a zero killed
    // every run with SIGFPE), and the global history is 32 bits wide.
    SimConfig cfg;
    for (const char *opt :
         {"mem.dcache.assoc=0", "mdp.mdptAssoc=0", "bpred.rasEntries=0",
          "bpred.gselectHistoryBits=33",
          "bpred.gselectHistoryBits=64"}) {
        EXPECT_EXIT(applyConfigOption(cfg, opt),
                    ::testing::ExitedWithCode(1), "bad number")
            << opt;
    }
    applyConfigOption(cfg, "bpred.gselectHistoryBits=32");
    EXPECT_EQ(cfg.bpred.gselectHistoryBits, 32u);
    applyConfigOption(cfg, "bpred.gselectHistoryBits=0");
    EXPECT_EQ(cfg.bpred.gselectHistoryBits, 0u);
    applyConfigOption(cfg, "mdp.mdptAssoc=1");
    EXPECT_EQ(cfg.mdp.mdptAssoc, 1u);
}

TEST(ConfigParseDeathTest, MissingEquals)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigOption(cfg, "core.windowSize"),
                ::testing::ExitedWithCode(1), "key=value");
}

TEST(ConfigParseDeathTest, BadPolicy)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigOption(cfg, "mdp.policy=MAGIC"),
                ::testing::ExitedWithCode(1), "bad policy");
}

} // anonymous namespace
} // namespace cwsim
