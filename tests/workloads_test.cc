/**
 * @file
 * Tests for the 18-kernel workload suite: every kernel must build,
 * halt, be deterministic, scale with the knob, and approximate its
 * SPEC'95 namesake's dynamic load/store mix (paper Table 1).
 */

#include <gtest/gtest.h>

#include "cpu/processor.hh"
#include "mdp/oracle.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

class KernelTest : public ::testing::TestWithParam<std::string>
{
  protected:
    static constexpr uint64_t test_scale = 30'000;
};

TEST_P(KernelTest, BuildsAndHalts)
{
    Workload w = workloads::build(GetParam(), test_scale);
    PrepassResult pre = runPrepass(w.program, {test_scale * 4, false});
    EXPECT_TRUE(pre.halted) << w.name << " did not halt";
    EXPECT_GT(pre.instCount, test_scale / 2);
    EXPECT_LT(pre.instCount, test_scale * 3);
}

TEST_P(KernelTest, MatchesPaperLoadStoreMix)
{
    Workload w = workloads::build(GetParam(), test_scale);
    PrepassResult pre = runPrepass(w.program);
    double load_pct = 100.0 * static_cast<double>(pre.loadCount) /
                      static_cast<double>(pre.instCount);
    double store_pct = 100.0 * static_cast<double>(pre.storeCount) /
                       static_cast<double>(pre.instCount);
    // The kernels are calibrated to Table 1 within a tolerance.
    EXPECT_NEAR(load_pct, w.paperLoadPct, 8.0) << w.name;
    EXPECT_NEAR(store_pct, w.paperStorePct, 6.0) << w.name;
}

TEST_P(KernelTest, Deterministic)
{
    Workload a = workloads::build(GetParam(), test_scale);
    Workload b = workloads::build(GetParam(), test_scale);
    PrepassResult pa = runPrepass(a.program);
    PrepassResult pb = runPrepass(b.program);
    EXPECT_EQ(pa.instCount, pb.instCount);
    EXPECT_EQ(pa.memFingerprint, pb.memFingerprint);
    for (unsigned r = 0; r < num_arch_regs; ++r)
        EXPECT_EQ(pa.finalState.regs[r], pb.finalState.regs[r]);
}

TEST_P(KernelTest, ScaleKnobScalesWork)
{
    Workload small = workloads::build(GetParam(), 10'000);
    Workload large = workloads::build(GetParam(), 40'000);
    PrepassResult ps = runPrepass(small.program);
    PrepassResult pl = runPrepass(large.program);
    EXPECT_GT(pl.instCount, ps.instCount * 2) << small.name;
}

TEST_P(KernelTest, HasBranchWork)
{
    // Every kernel needs control flow for the front end to chew on.
    Workload w = workloads::build(GetParam(), test_scale);
    PrepassResult pre = runPrepass(w.program);
    EXPECT_GT(pre.branchCount + pre.takenBranches, pre.instCount / 100)
        << w.name;
}

TEST_P(KernelTest, TimingRunMatchesFunctional)
{
    // The big invariant: the OoO core with naive speculation commits
    // exactly what the interpreter computes, for every kernel.
    Workload w = workloads::build(GetParam(), test_scale);
    PrepassResult pre = runPrepass(w.program);

    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.maxCycles = 10'000'000;
    Processor proc(cfg, w.program, &pre.deps);
    proc.run();
    ASSERT_TRUE(proc.halted()) << w.name;
    EXPECT_EQ(proc.procStats().commits.value(), pre.instCount) << w.name;
    EXPECT_EQ(proc.memory().fingerprint(), pre.memFingerprint) << w.name;
    for (unsigned r = 0; r < num_arch_regs; ++r) {
        EXPECT_EQ(proc.archState().regs[r], pre.finalState.regs[r])
            << w.name << " register " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelTest,
                         ::testing::ValuesIn(workloads::allNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             return "k" + n.substr(0, 3);
                         });

TEST(RegistryTest, EighteenKernels)
{
    EXPECT_EQ(workloads::allNames().size(), 18u);
    EXPECT_EQ(workloads::intNames().size(), 8u);
    EXPECT_EQ(workloads::fpNames().size(), 10u);
}

TEST(RegistryTest, ShortNamesResolve)
{
    Workload w = workloads::build("129");
    EXPECT_EQ(w.name, "129.compress");
    EXPECT_FALSE(w.isFp);
    Workload f = workloads::build("145");
    EXPECT_EQ(f.name, "145.fpppp");
    EXPECT_TRUE(f.isFp);
}

TEST(RegistryTest, UnknownNameDies)
{
    EXPECT_EXIT(workloads::build("999.nonesuch"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(RegistryTest, ScaleBelowTheMinimumDies)
{
    // Far below the minimum no kernel halts; every scale input refuses
    // less, and build() itself is the last line.
    EXPECT_EXIT(workloads::build("129.compress", workloads::min_scale - 1),
                ::testing::ExitedWithCode(1),
                "workload scale 999 is below the minimum of 1000");
    EXPECT_EXIT(workloads::build("129.compress", 0),
                ::testing::ExitedWithCode(1), "below the minimum");
    for (const auto &w : workloads::buildAll(workloads::min_scale))
        EXPECT_TRUE(runPrepass(w.program).halted) << w.name;
}

TEST(RegistryTest, PaperMetadataPresent)
{
    for (const auto &w : workloads::buildAll(5'000)) {
        EXPECT_GT(w.paperLoadPct, 0) << w.name;
        EXPECT_GT(w.paperStorePct, 0) << w.name;
        EXPECT_GT(w.paperIcMillions, 0) << w.name;
        EXPECT_FALSE(w.shortName.empty()) << w.name;
    }
}

} // anonymous namespace
} // namespace cwsim
