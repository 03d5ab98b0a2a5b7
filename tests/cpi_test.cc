/**
 * @file
 * Tests for the commit-slot cycle-accounting subsystem (CPI stacks):
 * the CpiStack counter itself, its StatGroup export, the conservation
 * law (every commit slot attributed to exactly one cause) across the
 * whole workload suite under every speculation policy and both
 * recovery models, serial-vs-parallel bit-identity of attributions,
 * and the split-window model's own stack.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/harness.hh"
#include "obs/cpi_stack.hh"
#include "sim/stats.hh"
#include "split/split_window.hh"
#include "sweep/sweep.hh"

namespace cwsim
{
namespace
{

using harness::RunResult;
using harness::Runner;
using obs::CpiCause;
using obs::CpiStack;
using sweep::SweepEngine;
using sweep::SweepOptions;
using sweep::SweepPlan;

TEST(CpiStack, AccountsEverySlotExactlyOnce)
{
    CpiStack cpi(4);
    EXPECT_EQ(cpi.width(), 4u);
    EXPECT_EQ(cpi.cycles(), 0u);
    EXPECT_EQ(cpi.totalSlots(), 0u);

    cpi.account(4, CpiCause::Committed);   // full commit cycle
    cpi.account(1, CpiCause::CacheMiss);   // 3 residual slots
    cpi.account(0, CpiCause::MemDepSquash); // fully stalled cycle

    EXPECT_EQ(cpi.cycles(), 3u);
    EXPECT_EQ(cpi.slot(CpiCause::Committed), 5u);
    EXPECT_EQ(cpi.slot(CpiCause::CacheMiss), 3u);
    EXPECT_EQ(cpi.slot(CpiCause::MemDepSquash), 4u);
    EXPECT_EQ(cpi.slot(CpiCause::Exec), 0u);
    // Conservation by construction: slots == cycles * width.
    EXPECT_EQ(cpi.totalSlots(), 3u * 4u);

    EXPECT_DOUBLE_EQ(cpi.fraction(CpiCause::Committed), 5.0 / 12.0);
    EXPECT_DOUBLE_EQ(cpi.fraction(CpiCause::MemDepSquash), 4.0 / 12.0);
    EXPECT_DOUBLE_EQ(cpi.fraction(CpiCause::TrueDep), 0.0);
}

TEST(CpiStack, RegistersUnderParentStatGroup)
{
    stats::StatGroup root("proc");
    CpiStack cpi(8);
    cpi.registerIn(root);
    cpi.account(3, CpiCause::WindowFull);

    std::string json = root.jsonString();
    EXPECT_NE(json.find("\"proc.cpi.committed\":3"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"proc.cpi.window_full\":5"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"proc.cpi.cycles\":1"), std::string::npos)
        << json;
    // Every cause exports under its stable snake_case key.
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        std::string key = std::string("\"proc.cpi.") +
                          obs::statKey(CpiCause(i)) + "\":";
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(CpiStack, CauseNamesAreStable)
{
    // statKey() is an on-disk format (JSONL "cpi_" columns and stat
    // export); renaming a key silently orphans old sweep files.
    EXPECT_STREQ(obs::statKey(CpiCause::Committed), "committed");
    EXPECT_STREQ(obs::statKey(CpiCause::MemDepSquash),
                 "mem_dep_squash");
    EXPECT_STREQ(obs::statKey(CpiCause::FalseDep), "false_dep");
    EXPECT_STREQ(obs::statKey(CpiCause::TrueDep), "true_dep");
    EXPECT_STREQ(obs::statKey(CpiCause::SyncWait), "sync_wait");
    EXPECT_STREQ(obs::statKey(CpiCause::StoreBarrier),
                 "store_barrier");
    EXPECT_STREQ(obs::statKey(CpiCause::AddrSched), "addr_sched");
    EXPECT_STREQ(obs::statKey(CpiCause::CacheMiss), "cache_miss");
    EXPECT_STREQ(obs::statKey(CpiCause::FetchBranch), "fetch_branch");
    EXPECT_STREQ(obs::statKey(CpiCause::WindowFull), "window_full");
    EXPECT_STREQ(obs::statKey(CpiCause::FrontEndIdle),
                 "front_end_idle");
    EXPECT_STREQ(obs::statKey(CpiCause::Exec), "exec");
    for (size_t i = 0; i < obs::num_cpi_causes; ++i)
        EXPECT_NE(obs::toString(CpiCause(i)), nullptr);
}

/**
 * The eight (LSQ model, policy) configurations the paper sweeps: the
 * six NAS policies plus the address scheduler with and without
 * speculation (nonzero latency so the AddrSched cause is exercised).
 */
std::vector<SimConfig>
allPolicyConfigs(RecoveryModel recovery)
{
    std::vector<SimConfig> configs;
    for (SpecPolicy policy :
         {SpecPolicy::No, SpecPolicy::Naive, SpecPolicy::Selective,
          SpecPolicy::StoreBarrier, SpecPolicy::SpecSync,
          SpecPolicy::Oracle}) {
        configs.push_back(
            withPolicy(makeW128Config(), LsqModel::NAS, policy));
    }
    configs.push_back(
        withPolicy(makeW128Config(), LsqModel::AS, SpecPolicy::No, 1));
    configs.push_back(withPolicy(makeW128Config(), LsqModel::AS,
                                 SpecPolicy::Naive, 1));
    for (SimConfig &cfg : configs)
        cfg.mdp.recovery = recovery;
    return configs;
}

TEST(CpiConservation, HoldsOnEveryWorkloadPolicyAndRecoveryModel)
{
    // Every workload x every policy x both recovery models: the level-1
    // invariant checker enforces conservation every check period
    // in-simulation; this asserts it end-to-end on the final counters,
    // plus the anchor identity slot(Committed) == total commits.
    SweepPlan plan;
    for (const auto &name : workloads::allNames()) {
        for (RecoveryModel rec :
             {RecoveryModel::Squash, RecoveryModel::Selective}) {
            for (const SimConfig &cfg : allPolicyConfigs(rec))
                plan.add(name, cfg);
        }
    }

    Runner runner(2000);
    SweepOptions opts;
    opts.useCache = false;
    SweepEngine engine(runner, opts);
    auto results = engine.run(plan);

    ASSERT_EQ(results.size(), plan.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        SCOPED_TRACE(r.workload + " / " + r.config);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.commitWidth,
                  plan.jobs()[i].config.core.commitWidth);
        EXPECT_EQ(r.cpiTotalSlots(),
                  r.cycles * uint64_t{r.commitWidth});
        EXPECT_EQ(r.cpiSlots[size_t(CpiCause::Committed)], r.commits);
    }
    EXPECT_TRUE(runner.failures().empty());
}

TEST(CpiConservation, AttributionsBitIdenticalSerialVsParallel)
{
    SweepPlan plan;
    for (const char *name :
         {"129.compress", "099.go", "102.swim", "104.hydro2d"}) {
        for (SpecPolicy policy :
             {SpecPolicy::Naive, SpecPolicy::Selective,
              SpecPolicy::SpecSync}) {
            plan.add(name, withPolicy(makeW128Config(), LsqModel::NAS,
                                      policy));
        }
    }

    Runner serialRunner(3000);
    SweepOptions serialOpts;
    serialOpts.jobs = 1;
    serialOpts.useCache = false;
    auto serialResults =
        SweepEngine(serialRunner, serialOpts).run(plan);

    Runner parallelRunner(3000);
    SweepOptions parallelOpts;
    parallelOpts.jobs = 4;
    parallelOpts.useCache = false;
    auto parallelResults =
        SweepEngine(parallelRunner, parallelOpts).run(plan);

    ASSERT_EQ(serialResults.size(), parallelResults.size());
    for (size_t i = 0; i < serialResults.size(); ++i) {
        SCOPED_TRACE(serialResults[i].workload + " / " +
                     serialResults[i].config);
        EXPECT_EQ(serialResults[i].commitWidth,
                  parallelResults[i].commitWidth);
        for (size_t c = 0; c < obs::num_cpi_causes; ++c) {
            EXPECT_EQ(serialResults[i].cpiSlots[c],
                      parallelResults[i].cpiSlots[c])
                << obs::toString(CpiCause(c));
        }
    }
}

TEST(CpiSplitWindow, ConservationAcrossWindowTypesAndPolicies)
{
    Workload w = workloads::build("129.compress", 3000);
    PrepassOptions popts;
    popts.recordTrace = true;
    PrepassResult pre = runPrepass(w.program, popts);
    ASSERT_TRUE(pre.halted);

    for (bool split : {false, true}) {
        for (SpecPolicy policy :
             {SpecPolicy::No, SpecPolicy::Naive, SpecPolicy::SpecSync}) {
            SplitConfig cfg;
            if (!split)
                cfg = SplitConfig::continuous();
            cfg.policy = policy;
            SplitWindowSim sim(cfg, pre.trace);
            // run() itself panics if conservation breaks; re-assert on
            // the public accessors.
            sim.run();
            SCOPED_TRACE(std::string(split ? "split" : "continuous") +
                         " policy " + std::to_string(int(policy)));
            const CpiStack &cpi = sim.cpiStack();
            EXPECT_EQ(cpi.width(), cfg.commitWidth);
            EXPECT_EQ(cpi.totalSlots(),
                      sim.cycles() * uint64_t{cfg.commitWidth});
            EXPECT_EQ(cpi.slot(CpiCause::Committed), sim.committed());
        }
    }
}

} // anonymous namespace
} // namespace cwsim
