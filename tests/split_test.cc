/**
 * @file
 * Tests for the split-window model, including the Section 3.7 claim:
 * under a split window, a 0-cycle address-based scheduler with naive
 * speculation can NOT avoid memory dependence miss-speculations,
 * whereas the continuous configuration of the same engine can.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "base/str.hh"
#include "isa/builder.hh"
#include "mdp/oracle.hh"
#include "obs/depprof.hh"
#include "obs/trace.hh"
#include "pin_util.hh"
#include "split/split_window.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

/**
 * The paper's Figure 7 loop, unrolled: iteration i stores a[i] (behind
 * a multiply chain) and iteration i+1 reloads it. Addresses come from a
 * base register set before the loop, so — as in a Multiscalar task,
 * where each unit knows its iteration range — a later unit can compute
 * a load address without waiting for earlier units. The ONLY
 * cross-iteration dependence is the memory recurrence, plus independent
 * side loads that an aggressive machine can hoist.
 */
Program
figure7Loop(int n = 400)
{
    ProgramBuilder b;
    Addr a = b.dataAlloc(4 * (n + 2));
    Addr side = b.dataAlloc(4 * (2 * n + 2));
    b.dataW32(a, 3);
    b.la(ir(1), a);
    b.la(ir(10), side);
    for (int i = 0; i < n; ++i) {
        int32_t off = 4 * i;
        b.lw(ir(3), ir(1), off);          // load a[i-1]
        b.mul(ir(4), ir(3), ir(3));       // slow data
        b.andi(ir(4), ir(4), 1023);
        b.sw(ir(4), ir(1), off + 4);      // store a[i]
        b.lw(ir(5), ir(10), off);         // independent loads
        b.lw(ir(6), ir(10), off + 4);
        b.add(ir(7), ir(5), ir(6));
    }
    b.halt();
    return b.build();
}

/**
 * Independent loads behind scatter stores whose ADDRESSES trail loads:
 * everything is ambiguous until each store posts, but no dependence is
 * ever real. No-speculation machines crawl; naive speculation flies.
 */
Program
ambiguousStream(int n = 300)
{
    ProgramBuilder b;
    Addr side = b.dataAlloc(4 * (2 * n + 4));
    Addr scatter = b.dataAlloc(4 * 1024);
    b.la(ir(10), side);
    b.la(ir(11), scatter);
    for (int i = 0; i < n; ++i) {
        int32_t off = 4 * i;
        b.lw(ir(8), ir(10), off + 8);     // index feed for the store
        b.mul(ir(8), ir(8), ir(8));       // slow the address down
        b.andi(ir(8), ir(8), 1020);
        b.add(ir(9), ir(11), ir(8));
        b.sw(ir(8), ir(9), 0);            // late-address scatter store
        b.lw(ir(5), ir(10), off);         // independent loads
        b.lw(ir(6), ir(10), off + 4);
        b.add(ir(7), ir(5), ir(6));
    }
    b.halt();
    return b.build();
}

/**
 * Figure 7's recurrence as an outer loop over an 8-iteration unrolled
 * body: the induction update sits at the TOP of the body (software-
 * pipelined), so later units can compute load addresses early, while
 * the static (load, store) pairs REPEAT across outer iterations — the
 * shape speculation/synchronization needs to learn.
 */
Program
rolledFigure7Loop(int outer = 120)
{
    constexpr int unroll = 8;
    ProgramBuilder b;
    Addr a = b.dataAlloc(4 * (outer * unroll + 2));
    Addr side = b.dataAlloc(4 * (2 * unroll + 2));
    b.dataW32(a, 3);
    b.la(ir(1), a);
    b.la(ir(10), side);
    b.li32(ir(2), static_cast<uint32_t>(outer));
    auto loop = b.hereLabel();
    b.addi(ir(1), ir(1), 4 * unroll); // induction first
    for (int u = 0; u < unroll; ++u) {
        int32_t off = 4 * (u - unroll); // relative to advanced base
        b.lw(ir(3), ir(1), off);        // load a[i-1]
        b.mul(ir(4), ir(3), ir(3));     // slow data
        b.andi(ir(4), ir(4), 1023);
        b.sw(ir(4), ir(1), off + 4);    // store a[i]
        b.lw(ir(5), ir(10), 4 * u);     // independent loads
        b.add(ir(7), ir(5), ir(4));
    }
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();
    return b.build();
}

std::vector<TraceEntry>
traceOf(const Program &prog)
{
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(prog, opts);
    EXPECT_TRUE(pre.halted);
    return pre.trace;
}

TEST(SplitWindowTest, RunsTraceToCompletion)
{
    auto trace = traceOf(figure7Loop());
    SplitConfig cfg;
    SplitWindowSim sim(cfg, trace);
    uint64_t cycles = sim.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(sim.committed(), trace.size());
}

TEST(SplitWindowTest, ContinuousAsNavAvoidsMisspeculation)
{
    // Continuous window + 0-cycle AS + naive speculation: by the time
    // a dependent load computes its address, all older store addresses
    // are posted (Figure 7b).
    auto trace = traceOf(figure7Loop());
    SplitConfig cfg = SplitConfig::continuous();
    cfg.lsqModel = LsqModel::AS;
    cfg.policy = SpecPolicy::Naive;
    cfg.asLatency = 0;
    SplitWindowSim sim(cfg, trace);
    sim.run();
    EXPECT_EQ(sim.violations(), 0u);
}

TEST(SplitWindowTest, SplitAsNavStillMisspeculates)
{
    // Split window: iteration i+1's load is fetched (in a later unit)
    // before iteration i's store, so even a 0-cycle address-based
    // scheduler cannot save it (Figure 7c).
    auto trace = traceOf(figure7Loop());
    SplitConfig cfg;
    cfg.numUnits = 4;
    cfg.chunkSize = 32;
    cfg.lsqModel = LsqModel::AS;
    cfg.policy = SpecPolicy::Naive;
    cfg.asLatency = 0;
    SplitWindowSim sim(cfg, trace);
    sim.run();
    EXPECT_GT(sim.violations(), 10u)
        << "the split window must expose the recurrence";
    EXPECT_EQ(sim.committed(), trace.size());
}

TEST(SplitWindowTest, NoSpeculationNeverViolates)
{
    auto trace = traceOf(figure7Loop());
    for (LsqModel model : {LsqModel::NAS, LsqModel::AS}) {
        SplitConfig cfg;
        cfg.lsqModel = model;
        cfg.policy = SpecPolicy::No;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        EXPECT_EQ(sim.violations(), 0u) << toString(model);
    }
}

TEST(SplitWindowTest, ContinuousSpeculationOutperformsNoSpeculation)
{
    // Under the continuous window, AS/NAV speculation is pure win: the
    // independent loads bypass ambiguous stores and no dependence is
    // ever violated.
    auto trace = traceOf(ambiguousStream());
    SplitConfig no_cfg = SplitConfig::continuous();
    no_cfg.policy = SpecPolicy::No;
    SplitWindowSim no_sim(no_cfg, trace);
    no_sim.run();

    SplitConfig nav_cfg = SplitConfig::continuous();
    nav_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim nav_sim(nav_cfg, trace);
    nav_sim.run();

    EXPECT_LT(nav_sim.cycles(), no_sim.cycles());
    EXPECT_EQ(nav_sim.violations(), 0u);
}

TEST(SplitWindowTest, NaiveSpeculationPenaltyHurtsSplitWindow)
{
    // The section 3.7 punchline from the other side: under the split
    // window naive speculation keeps miss-speculating on the
    // recurrence, so (unlike the continuous machine) AS/NAV is NOT an
    // adequate solution there — advanced dependence prediction is
    // needed.
    auto trace = traceOf(figure7Loop());
    SplitConfig nav_cfg;
    nav_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim nav_sim(nav_cfg, trace);
    nav_sim.run();
    EXPECT_GT(nav_sim.violations(), 10u);

    SplitConfig cont_cfg = SplitConfig::continuous();
    cont_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim cont_sim(cont_cfg, trace);
    cont_sim.run();
    EXPECT_EQ(cont_sim.violations(), 0u);
}

TEST(SplitWindowTest, MoreUnitsMoreParallelFetch)
{
    // With independent per-unit fetch, total fetch bandwidth grows with
    // units; an embarrassingly parallel trace must speed up.
    ProgramBuilder b;
    Addr arr = b.dataAlloc(4 * 4096);
    b.la(ir(1), arr);
    b.addi(ir(2), reg_zero, 1000);
    auto loop = b.hereLabel();
    b.lw(ir(3), ir(1), 0);
    b.addi(ir(3), ir(3), 1);
    b.addi(ir(1), ir(1), 4);
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();
    auto trace = traceOf(b.build());

    SplitConfig one;
    one.numUnits = 1;
    one.chunkSize = 32;
    SplitWindowSim sim_one(one, trace);
    sim_one.run();

    SplitConfig four;
    four.numUnits = 4;
    four.chunkSize = 32;
    SplitWindowSim sim_four(four, trace);
    sim_four.run();

    EXPECT_LT(sim_four.cycles(), sim_one.cycles());
}

TEST(SplitWindowTest, WorkloadTracesRunUnderAllPolicies)
{
    Workload w = workloads::build("129.compress", 15'000);
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(w.program, opts);
    for (LsqModel model : {LsqModel::NAS, LsqModel::AS}) {
        for (SpecPolicy policy :
             {SpecPolicy::No, SpecPolicy::Naive}) {
            SplitConfig cfg;
            cfg.lsqModel = model;
            cfg.policy = policy;
            SplitWindowSim sim(cfg, pre.trace);
            sim.run();
            EXPECT_EQ(sim.committed(), pre.trace.size())
                << configName(model, policy);
        }
    }
}

TEST(SplitWindowTest, AsLatencyDegradesPerformance)
{
    auto trace = traceOf(figure7Loop());
    uint64_t prev = 0;
    for (Cycles lat : {0u, 2u}) {
        SplitConfig cfg;
        cfg.lsqModel = LsqModel::AS;
        cfg.policy = SpecPolicy::Naive;
        cfg.asLatency = lat;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        if (lat > 0) {
            EXPECT_GE(sim.cycles(), prev);
        }
        prev = sim.cycles();
    }
}


TEST(SplitWindowTest, SyncRescuesTheSplitWindow)
{
    // The paper's prior work [19] in one test: the split window cannot
    // be saved by address-based scheduling (see above), but
    // speculation/synchronization can — after the first few pairings
    // the violating (load, store) pair synchronizes and
    // miss-speculation collapses, recovering performance.
    auto trace = traceOf(rolledFigure7Loop());

    // One unrolled body per sub-window: the cross-body recurrence pair
    // always spans units.
    SplitConfig nav_cfg;
    nav_cfg.chunkSize = 51; // 8 slots * 6 insts + 3 loop insts
    nav_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim nav_sim(nav_cfg, trace);
    nav_sim.run();
    EXPECT_GT(nav_sim.violations(), 20u)
        << "the rolled recurrence must miss-speculate under split NAV";

    SplitConfig sync_cfg = nav_cfg;
    sync_cfg.policy = SpecPolicy::SpecSync;
    SplitWindowSim sync_sim(sync_cfg, trace);
    sync_sim.run();

    EXPECT_LT(sync_sim.violations(), nav_sim.violations() / 4);
    EXPECT_LE(sync_sim.cycles(), nav_sim.cycles());
    EXPECT_EQ(sync_sim.committed(), trace.size());
}


TEST(SplitWindowTest, InterUnitLatencySlowsCrossUnitChains)
{
    // A serial register chain crossing unit boundaries pays the
    // forwarding latency; raising it must not speed anything up.
    auto trace = traceOf(figure7Loop(200));
    uint64_t prev = 0;
    for (Cycles lat : {0u, 1u, 4u}) {
        SplitConfig cfg;
        cfg.interUnitLatency = lat;
        cfg.policy = SpecPolicy::No;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        EXPECT_GE(sim.cycles() + 1, prev) << "latency " << lat;
        prev = sim.cycles();
    }
}

/**
 * Three stores to one word, the middle one behind a multiply chain,
 * then a load of that word (@p with_young_store false drops the last
 * store).
 */
Program
lateMiddleStore(bool with_young_store)
{
    ProgramBuilder b;
    Addr a = b.dataAlloc(8);
    b.la(ir(1), a);
    b.addi(ir(2), reg_zero, 5);
    b.sw(ir(2), ir(1), 0);      // early data
    b.mul(ir(3), ir(2), ir(2)); // slow data
    b.mul(ir(3), ir(3), ir(3));
    b.mul(ir(3), ir(3), ir(3));
    b.sw(ir(3), ir(1), 0);      // executes after the load
    if (with_young_store)
        b.sw(ir(2), ir(1), 0);  // early data, younger
    b.lw(ir(4), ir(1), 0);
    b.halt();
    return b.build();
}

TEST(SplitWindowTest, ALoadForwardsFromTheYoungestOlderStore)
{
    // NAS/NAV lets the load pass the slow middle store. With a
    // younger executed store in between, the load took that store's
    // value, so the middle store's late execution is no violation;
    // without it, the load read the oldest store's stale value.
    for (bool young : {true, false}) {
        auto trace = traceOf(lateMiddleStore(young));
        SplitConfig cfg = SplitConfig::continuous();
        cfg.lsqModel = LsqModel::NAS;
        cfg.policy = SpecPolicy::Naive;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        EXPECT_EQ(sim.committed(), trace.size());
        EXPECT_EQ(sim.violations(), young ? 0u : 1u)
            << (young ? "with" : "without") << " the younger store";
    }
}

/** The two window shapes fig7 contrasts: continuous and 4 x 32. */
SplitConfig
windowShape(bool split)
{
    return split ? SplitConfig{} : SplitConfig::continuous();
}

TEST(SplitWindowTest, ResultsArePinned)
{
    // No stats golden covers the split model (it runs outside the
    // Runner). Every kernel at scale 2000 under both window shapes,
    // NAS, AS/0 and AS/2, and NO, NAV and SYNC, with a dependence
    // profile: one digest over each run's cycles, commits,
    // violations, CPI slots and serialized profile block, recorded
    // from the simulator before its load gate became one walk.
    struct Lsq
    {
        LsqModel model;
        Cycles asLatency;
    };
    const Lsq lsqs[] = {{LsqModel::NAS, 0}, {LsqModel::AS, 0},
                        {LsqModel::AS, 2}};
    const SpecPolicy policies[] = {SpecPolicy::No, SpecPolicy::Naive,
                                   SpecPolicy::SpecSync};

    const std::string prof_path =
        testing::TempDir() + "cwsim_split_pinned.depprof.jsonl";
    std::remove(prof_path.c_str());
    obs::DepProfManager &mgr = obs::DepProfManager::instance();
    mgr.enable(prof_path);
    obs::setRunLabel("");

    size_t runs = 0;
    std::string text;
    for (const std::string &name : workloads::allNames()) {
        Workload w = workloads::build(name, 2000);
        PrepassOptions opts;
        opts.recordTrace = true;
        PrepassResult pre = runPrepass(w.program, opts);
        ASSERT_TRUE(pre.halted) << name;
        for (bool split : {false, true}) {
            for (const Lsq &lsq : lsqs) {
                for (SpecPolicy policy : policies) {
                    SplitConfig cfg = windowShape(split);
                    cfg.lsqModel = lsq.model;
                    cfg.asLatency = lsq.asLatency;
                    cfg.policy = policy;
                    SplitWindowSim sim(cfg, pre.trace);
                    sim.run();
                    ASSERT_EQ(sim.committed(), pre.trace.size()) << name;
                    ASSERT_NE(sim.depProfile(), nullptr);
                    text += strfmt(
                        "%s %d %s/%llu %s: %llu %llu %llu",
                        name.c_str(), int{split},
                        toString(lsq.model),
                        static_cast<unsigned long long>(lsq.asLatency),
                        toString(policy),
                        static_cast<unsigned long long>(sim.cycles()),
                        static_cast<unsigned long long>(sim.committed()),
                        static_cast<unsigned long long>(
                            sim.violations()));
                    for (size_t c = 0; c < obs::num_cpi_causes; ++c) {
                        text += strfmt(
                            " %llu", static_cast<unsigned long long>(
                                         sim.cpiStack().slot(
                                             obs::CpiCause(c))));
                    }
                    text += '\n';
                    std::vector<std::string> block;
                    sim.depProfile()->serialize(block);
                    for (const std::string &line : block)
                        text += line + '\n';
                    ++runs;
                }
            }
        }
    }
    mgr.resetForTesting();
    std::remove(prof_path.c_str());

    EXPECT_EQ(runs, 324u);
    uint64_t digest = fnv1a64(text);
    EXPECT_EQ(digest, 0xb03744da81488c53ull)
        << strfmt("digest 0x%016llx",
                  static_cast<unsigned long long>(digest));
}

TEST(SplitWindowTest, PipelineTimelineIsPinned)
{
    // The split model's O3PipeView stream prints each instruction's
    // fetch, issue and completion cycles and its squash count; no
    // other output holds them. 129.compress at scale 2000 under AS/0
    // SYNC, continuous and 4 x 32, pinned by line count and digest,
    // recorded from the simulator before its load gate became one
    // walk.
    struct Pin
    {
        const char *name;
        bool split;
        size_t lines;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"continuous", false, 18459, 0x0bd5812a8d1a0c83ull},
        {"4x32", true, 18459, 0x94f33c7829b4f477ull},
    };

    Workload w = workloads::build("129.compress", 2000);
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(w.program, opts);
    ASSERT_TRUE(pre.halted);
    const std::string pipe_path =
        testing::TempDir() + "cwsim_split_pinned_pipeview.out";
    obs::TraceManager &tm = obs::TraceManager::instance();
    tm.resetForTesting();
    for (const Pin &pin : pins) {
        SplitConfig cfg = windowShape(pin.split);
        cfg.lsqModel = LsqModel::AS;
        cfg.asLatency = 0;
        cfg.policy = SpecPolicy::SpecSync;
        ASSERT_TRUE(tm.setPipeViewPath(pipe_path));
        {
            SplitWindowSim sim(cfg, pre.trace);
            sim.run();
            ASSERT_EQ(sim.committed(), pre.trace.size()) << pin.name;
        }
        tm.resetForTesting(); // close the pipeview file before reading
        std::string text = slurp(pipe_path);
        size_t lines =
            static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
        uint64_t digest = fnv1a64(text);
        EXPECT_EQ(lines, pin.lines) << pin.name;
        EXPECT_EQ(digest, pin.digest)
            << pin.name
            << strfmt(": digest 0x%016llx",
                      static_cast<unsigned long long>(digest));
    }
    std::remove(pipe_path.c_str());
}

TEST(SplitWindowTest, EmptyTraceIsFine)
{
    std::vector<TraceEntry> empty;
    SplitConfig cfg;
    SplitWindowSim sim(cfg, empty);
    EXPECT_EQ(sim.run(), 0u);
    EXPECT_EQ(sim.committed(), 0u);
}

} // anonymous namespace
} // namespace cwsim
