/**
 * @file
 * Tests for the out-of-order timing core. The central property: under
 * EVERY load/store scheduling configuration, the timing core must
 * commit exactly the architectural results the functional interpreter
 * produces — speculation may change timing, never semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "base/random.hh"
#include "cpu/processor.hh"
#include "harness/harness.hh"
#include "isa/builder.hh"
#include "isa/executor.hh"
#include "mdp/oracle.hh"
#include "mem/functional_memory.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

/** All eight (model, policy) combinations the paper studies. */
const std::vector<std::pair<LsqModel, SpecPolicy>> all_configs = {
    {LsqModel::NAS, SpecPolicy::No},
    {LsqModel::NAS, SpecPolicy::Naive},
    {LsqModel::NAS, SpecPolicy::Selective},
    {LsqModel::NAS, SpecPolicy::StoreBarrier},
    {LsqModel::NAS, SpecPolicy::SpecSync},
    {LsqModel::NAS, SpecPolicy::Oracle},
    {LsqModel::AS, SpecPolicy::No},
    {LsqModel::AS, SpecPolicy::Naive},
};

struct RunResult
{
    uint64_t cycles;
    uint64_t commits;
    uint64_t violations;
    ArchState finalState;
    uint64_t memFingerprint;
};

RunResult
runTimed(const Program &prog, LsqModel model, SpecPolicy policy,
         Cycles as_lat = 0, const OracleDeps *oracle = nullptr)
{
    SimConfig cfg = withPolicy(makeW128Config(), model, policy, as_lat);
    cfg.maxCycles = 2'000'000;
    Processor proc(cfg, prog, oracle);
    proc.run();
    EXPECT_TRUE(proc.halted()) << "did not reach HALT under "
                               << cfg.name();
    RunResult r;
    r.cycles = proc.procStats().cycles.value();
    r.commits = proc.procStats().commits.value();
    r.violations = proc.procStats().memOrderViolations.value();
    r.finalState = proc.archState();
    r.memFingerprint = proc.memory().fingerprint();
    return r;
}

void
expectMatchesFunctional(const Program &prog, const PrepassResult &golden,
                        const RunResult &timed, const std::string &what)
{
    (void)prog;
    EXPECT_EQ(timed.memFingerprint, golden.memFingerprint)
        << what << ": memory differs from functional execution";
    for (unsigned r = 0; r < num_arch_regs; ++r) {
        EXPECT_EQ(timed.finalState.regs[r], golden.finalState.regs[r])
            << what << ": register " << r << " differs";
    }
    // +1: the prepass counts HALT itself as an executed instruction and
    // so does commit.
    EXPECT_EQ(timed.commits, golden.instCount) << what;
}

// ---------------------------------------------------------------------
// Test programs.
// ---------------------------------------------------------------------

/** Independent ALU work, no memory: pipeline sanity. */
Program
aluProgram()
{
    ProgramBuilder b;
    b.addi(ir(1), reg_zero, 1);
    b.addi(ir(2), reg_zero, 2);
    auto loop = b.hereLabel();
    b.add(ir(3), ir(1), ir(2));
    b.mul(ir(4), ir(3), ir(2));
    b.sub(ir(5), ir(4), ir(1));
    b.addi(ir(1), ir(1), 1);
    b.slti(ir(6), ir(1), 50);
    b.bne(ir(6), reg_zero, loop);
    b.halt();
    return b.build();
}

/** A classic memory recurrence: a[i] = a[i-1] + 1. */
Program
recurrenceProgram(int n = 64)
{
    ProgramBuilder b;
    Addr arr = b.dataAlloc(4 * (n + 1));
    b.dataW32(arr, 5);
    b.la(ir(1), arr);     // p = &a[0]
    b.addi(ir(2), reg_zero, n);
    auto loop = b.hereLabel();
    b.lw(ir(3), ir(1), 0);       // t = a[i-1]
    b.addi(ir(3), ir(3), 1);
    b.sw(ir(3), ir(1), 4);       // a[i] = t + 1
    b.addi(ir(1), ir(1), 4);
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.lw(ir(10), ir(1), 0);      // final value
    b.halt();
    return b.build();
}

/**
 * Stores with slow (divide-fed) data followed by independent loads:
 * maximal false dependences — the NAS/NO pathology of Table 3.
 */
Program
falseDepProgram()
{
    ProgramBuilder b;
    Addr a = b.dataAlloc(4 * 256);
    Addr bb = b.dataAlloc(4 * 256);
    for (int i = 0; i < 256; ++i)
        b.dataW32(bb + 4 * i, i * 3 + 1);
    b.la(ir(1), a);
    b.la(ir(2), bb);
    b.addi(ir(3), reg_zero, 64);  // iterations
    b.addi(ir(4), reg_zero, 97);
    auto loop = b.hereLabel();
    b.div(ir(5), ir(4), ir(3));   // slow producer
    b.sw(ir(5), ir(1), 0);        // store with late data
    b.lw(ir(6), ir(2), 0);        // independent loads
    b.lw(ir(7), ir(2), 4);
    b.lw(ir(8), ir(2), 8);
    b.add(ir(9), ir(6), ir(7));
    b.add(ir(9), ir(9), ir(8));
    b.add(ir(4), ir(4), ir(9));
    b.addi(ir(1), ir(1), 4);
    b.addi(ir(2), ir(2), 4);
    b.addi(ir(3), ir(3), -1);
    b.bne(ir(3), reg_zero, loop);
    b.halt();
    return b.build();
}

/**
 * A store->load true dependence through memory where the load's address
 * is ready long before the store's data: naive speculation violates it
 * every iteration, and the same static (store, load) pair repeats — the
 * pattern SYNC is built to fix.
 */
Program
violationProgram(int n = 200)
{
    ProgramBuilder b;
    Addr cell = b.dataAlloc(8);
    Addr sink = b.dataAlloc(4 * 8);
    b.dataW32(cell, 1);
    b.la(ir(1), cell);
    b.la(ir(7), sink);
    b.addi(ir(2), reg_zero, n);
    b.addi(ir(5), reg_zero, 13);
    auto loop = b.hereLabel();
    b.mul(ir(4), ir(5), ir(2));   // slow data for the store
    b.sw(ir(4), ir(1), 0);        // store to cell
    b.lw(ir(6), ir(1), 0);        // immediately reload the cell
    b.add(ir(5), ir(6), ir(5));   // consume quickly
    b.sw(ir(5), ir(7), 0);
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();
    return b.build();
}

/** Byte-granular partial overlap: sb/lb/lw mixing. */
Program
partialOverlapProgram()
{
    ProgramBuilder b;
    Addr buf = b.dataAlloc(16);
    b.dataW32(buf, 0x44332211);
    b.la(ir(1), buf);
    b.addi(ir(2), reg_zero, 0x7f);
    b.sb(ir(2), ir(1), 1);        // overwrite byte 1
    b.lw(ir(3), ir(1), 0);        // word load across the stored byte
    b.lbu(ir(4), ir(1), 1);
    b.addi(ir(5), reg_zero, -2);
    b.sb(ir(5), ir(1), 3);
    b.lw(ir(6), ir(1), 0);
    b.sw(ir(6), ir(1), 8);
    b.lbu(ir(7), ir(1), 11);
    b.halt();
    return b.build();
}

/**
 * Two partially overlapping stores into one word, where only the
 * YOUNGER store's data is ready when the load issues: the load forwards
 * byte 1 from the younger store and reads byte 0 stale from memory.
 * When the older store finally executes, a scalar "youngest forwarding
 * source" test concludes the load already saw a younger store and skips
 * it — only per-byte source tracking catches the stale byte 0.
 */
Program
byteWiseViolationProgram()
{
    ProgramBuilder b;
    Addr buf = b.dataAlloc(8);
    b.dataW32(buf, 0x11223344);
    b.la(ir(1), buf);
    b.addi(ir(2), reg_zero, 3);
    b.mul(ir(2), ir(2), ir(2));   // slow data chain for the older store
    b.mul(ir(2), ir(2), ir(2));
    b.mul(ir(2), ir(2), ir(2));
    b.mul(ir(2), ir(2), ir(2));
    b.sb(ir(2), ir(1), 0);        // S1: byte 0, data arrives late
    b.addi(ir(3), reg_zero, 0x5a);
    b.sb(ir(3), ir(1), 1);        // S2: byte 1, executes immediately
    b.lw(ir(4), ir(1), 0);        // forwards byte 1 from S2, byte 0
                                  // speculatively from memory
    b.halt();
    return b.build();
}

/** Function calls + stack traffic exercising the RAS and JR. */
Program
callProgram()
{
    ProgramBuilder b;
    Addr stack_top = b.stackTop();
    auto func = b.newLabel();
    auto done = b.newLabel();
    b.la(reg_sp, stack_top);
    b.addi(ir(4), reg_zero, 12);
    b.addi(ir(10), reg_zero, 0);
    auto loop = b.hereLabel();
    b.jal(func);
    b.add(ir(10), ir(10), ir(5));
    b.addi(ir(4), ir(4), -1);
    b.bne(ir(4), reg_zero, loop);
    b.j(done);
    b.bind(func);
    b.addi(reg_sp, reg_sp, -8);
    b.sw(ir(4), reg_sp, 0);       // spill
    b.sw(reg_ra, reg_sp, 4);
    b.mul(ir(5), ir(4), ir(4));
    b.lw(ir(4), reg_sp, 0);       // reload
    b.lw(reg_ra, reg_sp, 4);
    b.addi(reg_sp, reg_sp, 8);
    b.jr(reg_ra);
    b.bind(done);
    b.halt();
    return b.build();
}

// ---------------------------------------------------------------------
// Architectural equivalence, parameterized over all configurations.
// ---------------------------------------------------------------------

class EquivalenceTest
    : public ::testing::TestWithParam<std::pair<LsqModel, SpecPolicy>>
{
  protected:
    void
    check(const Program &prog)
    {
        auto [model, policy] = GetParam();
        PrepassResult golden = runPrepass(prog);
        ASSERT_TRUE(golden.halted);
        RunResult timed = runTimed(prog, model, policy, 0, &golden.deps);
        expectMatchesFunctional(prog, golden, timed,
                                configName(model, policy));
    }
};

TEST_P(EquivalenceTest, AluLoop) { check(aluProgram()); }
TEST_P(EquivalenceTest, MemoryRecurrence) { check(recurrenceProgram()); }
TEST_P(EquivalenceTest, FalseDepKernel) { check(falseDepProgram()); }
TEST_P(EquivalenceTest, ViolationKernel) { check(violationProgram()); }
TEST_P(EquivalenceTest, PartialOverlap)
{
    check(partialOverlapProgram());
}
TEST_P(EquivalenceTest, CallsAndStack) { check(callProgram()); }

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EquivalenceTest, ::testing::ValuesIn(all_configs),
    [](const auto &info) {
        std::string n = configName(info.param.first, info.param.second);
        for (char &c : n) {
            if (c == '/')
                c = '_';
        }
        return n;
    });

// AS with nonzero scheduler latency must also stay correct.
TEST(EquivalenceLatency, AsLatencies)
{
    Program prog = violationProgram();
    PrepassResult golden = runPrepass(prog);
    for (Cycles lat : {1u, 2u}) {
        for (SpecPolicy p : {SpecPolicy::No, SpecPolicy::Naive}) {
            RunResult timed =
                runTimed(prog, LsqModel::AS, p, lat, &golden.deps);
            expectMatchesFunctional(prog, golden, timed,
                                    configName(LsqModel::AS, p));
        }
    }
}

// ---------------------------------------------------------------------
// Behavioural properties of the policies.
// ---------------------------------------------------------------------

TEST(PolicyBehaviour, NaiveSpeculationViolates)
{
    Program prog = violationProgram();
    PrepassResult golden = runPrepass(prog);
    RunResult nav = runTimed(prog, LsqModel::NAS, SpecPolicy::Naive, 0,
                             &golden.deps);
    EXPECT_GT(nav.violations, 20u)
        << "the violation kernel must actually miss-speculate";
}

TEST(PolicyBehaviour, NoSpeculationNeverViolates)
{
    Program prog = violationProgram();
    RunResult no = runTimed(prog, LsqModel::NAS, SpecPolicy::No);
    EXPECT_EQ(no.violations, 0u);
}

TEST(PolicyBehaviour, OracleNeverViolates)
{
    Program prog = violationProgram();
    PrepassResult golden = runPrepass(prog);
    RunResult oracle = runTimed(prog, LsqModel::NAS, SpecPolicy::Oracle,
                                0, &golden.deps);
    EXPECT_EQ(oracle.violations, 0u);
}

TEST(PolicyBehaviour, SyncEliminatesMostViolations)
{
    Program prog = violationProgram();
    PrepassResult golden = runPrepass(prog);
    RunResult nav = runTimed(prog, LsqModel::NAS, SpecPolicy::Naive, 0,
                             &golden.deps);
    RunResult sync = runTimed(prog, LsqModel::NAS, SpecPolicy::SpecSync,
                              0, &golden.deps);
    EXPECT_LT(sync.violations, nav.violations / 5)
        << "SYNC must learn the repeating dependence";
}

TEST(PolicyBehaviour, AddressSchedulingAvoidsViolations)
{
    // Section 3.4: with an address-based scheduler, miss-speculations
    // are virtually non-existent.
    Program prog = violationProgram();
    PrepassResult golden = runPrepass(prog);
    RunResult as_nav = runTimed(prog, LsqModel::AS, SpecPolicy::Naive,
                                0, &golden.deps);
    RunResult nas_nav = runTimed(prog, LsqModel::NAS, SpecPolicy::Naive,
                                 0, &golden.deps);
    EXPECT_LT(as_nav.violations, nas_nav.violations / 5);
}

TEST(PolicyBehaviour, OracleBeatsNoSpeculationOnFalseDeps)
{
    Program prog = falseDepProgram();
    PrepassResult golden = runPrepass(prog);
    RunResult no =
        runTimed(prog, LsqModel::NAS, SpecPolicy::No, 0, &golden.deps);
    RunResult oracle = runTimed(prog, LsqModel::NAS, SpecPolicy::Oracle,
                                0, &golden.deps);
    EXPECT_LT(oracle.cycles, no.cycles)
        << "oracle must exploit the load/store parallelism";
}

TEST(PolicyBehaviour, FalseDependencesAreDetected)
{
    Program prog = falseDepProgram();
    PrepassResult golden = runPrepass(prog);
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::No);
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    EXPECT_GT(proc.procStats().falseDepLoads.value(), 50u);
    EXPECT_GT(proc.procStats().falseDepLatency.mean(), 1.0);
}

TEST(PolicyBehaviour, AsLatencyCostsPerformance)
{
    Program prog = falseDepProgram();
    PrepassResult golden = runPrepass(prog);
    RunResult lat0 = runTimed(prog, LsqModel::AS, SpecPolicy::Naive, 0,
                              &golden.deps);
    RunResult lat2 = runTimed(prog, LsqModel::AS, SpecPolicy::Naive, 2,
                              &golden.deps);
    EXPECT_LE(lat0.cycles, lat2.cycles);
}

// ---------------------------------------------------------------------
// Pipeline mechanics.
// ---------------------------------------------------------------------

TEST(PipelineTest, SuperscalarIpcAboveOne)
{
    Program prog = aluProgram();
    RunResult r = runTimed(prog, LsqModel::NAS, SpecPolicy::Naive);
    double ipc = static_cast<double>(r.commits) / r.cycles;
    EXPECT_GT(ipc, 1.0) << "an 8-wide core must exceed IPC 1 on "
                           "independent ALU work";
}

TEST(PipelineTest, W64IsNotFasterThanW128)
{
    Program prog = falseDepProgram();
    PrepassResult golden = runPrepass(prog);

    SimConfig small = withPolicy(makeW64Config(), LsqModel::NAS,
                                 SpecPolicy::Oracle);
    Processor p64(small, prog, &golden.deps);
    p64.run();

    SimConfig big = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Oracle);
    Processor p128(big, prog, &golden.deps);
    p128.run();

    EXPECT_GE(p64.procStats().cycles.value(),
              p128.procStats().cycles.value());
}

TEST(PipelineTest, MaxInstsStopsRun)
{
    Program prog = aluProgram();
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.maxInsts = 100;
    Processor proc(cfg, prog);
    proc.run();
    EXPECT_FALSE(proc.halted());
    EXPECT_GE(proc.procStats().commits.value(), 100u);
    EXPECT_LT(proc.procStats().commits.value(),
              100u + cfg.core.commitWidth);
}

TEST(PipelineTest, RunTimingThenFastForwardStaysCorrect)
{
    // Sampled simulation: alternate timing and functional phases; the
    // final architectural state must still match pure functional.
    Program prog = recurrenceProgram(200);
    PrepassResult golden = runPrepass(prog);

    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    Processor proc(cfg, prog, &golden.deps);
    while (!proc.halted()) {
        proc.runTiming(150);
        if (proc.halted())
            break;
        proc.fastForward(100);
    }
    EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint);
    for (unsigned r = 0; r < num_arch_regs; ++r) {
        EXPECT_EQ(proc.archState().regs[r], golden.finalState.regs[r])
            << "register " << r;
    }
}

TEST(PipelineTest, BranchMispredictsAreRecorded)
{
    // A data-dependent unpredictable branch pattern.
    ProgramBuilder b;
    b.addi(ir(1), reg_zero, 500);
    b.addi(ir(2), reg_zero, 0);
    b.li32(ir(7), 1234567);
    auto loop = b.newLabel();
    auto skip = b.newLabel();
    b.bind(loop);
    // xorshift-ish pseudo-random bit
    b.slli(ir(3), ir(7), 13);
    b.xor_(ir(7), ir(7), ir(3));
    b.srli(ir(3), ir(7), 17);
    b.xor_(ir(7), ir(7), ir(3));
    b.andi(ir(4), ir(7), 1);
    b.beq(ir(4), reg_zero, skip);
    b.addi(ir(2), ir(2), 3);
    b.bind(skip);
    b.addi(ir(1), ir(1), -1);
    b.bne(ir(1), reg_zero, loop);
    b.halt();
    Program prog = b.build();

    PrepassResult golden = runPrepass(prog);
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    EXPECT_GT(proc.procStats().branchMispredicts.value(), 50u);
    EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint);
    EXPECT_EQ(proc.archState().regs[ir(2)],
              golden.finalState.regs[ir(2)]);
}

TEST(PipelineTest, StatsGroupExposesCounters)
{
    Program prog = aluProgram();
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    Processor proc(cfg, prog);
    proc.run();
    EXPECT_TRUE(proc.statsGroup().hasScalar("commits"));
    EXPECT_EQ(proc.statsGroup().scalarValue("commits"),
              proc.procStats().commits.value());
}


TEST(PipelineTest, OccupancyAndForwardingStats)
{
    // The occupancy distribution samples once per cycle, and the
    // store-buffer forwards loads that hit in-flight store data.
    Program prog = recurrenceProgram(100);
    PrepassResult golden = runPrepass(prog);
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Oracle);
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    const ProcStats &s = proc.procStats();
    EXPECT_EQ(s.windowOccupancy.count(), s.cycles.value());
    EXPECT_GT(s.windowOccupancy.mean(), 1.0);
    // The recurrence loads a value the previous iteration stored:
    // under ORACLE the load waits for the store and forwards from it.
    EXPECT_GT(s.loadsForwarded.value(), 50u);
}


TEST(PolicyBehaviour, SelectiveInvalidationRecoversWithoutSquashing)
{
    // Paper Section 2's alternative recovery: re-execute only the
    // dependence slice. Same architectural results, fewer squashed
    // instructions, performance at least as good as squashing.
    Program prog = violationProgram();
    PrepassResult golden = runPrepass(prog);

    SimConfig squash_cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                                      SpecPolicy::Naive);
    Processor squash_proc(squash_cfg, prog, &golden.deps);
    squash_proc.run();

    SimConfig sel_cfg = squash_cfg;
    sel_cfg.mdp.recovery = RecoveryModel::Selective;
    Processor sel_proc(sel_cfg, prog, &golden.deps);
    sel_proc.run();
    ASSERT_TRUE(sel_proc.halted());

    // Correctness is untouched.
    EXPECT_EQ(sel_proc.memory().fingerprint(), golden.memFingerprint);
    // Slices actually ran, and most violations avoided a squash.
    EXPECT_GT(sel_proc.procStats().selectiveRecoveries.value(), 20u);
    EXPECT_LT(sel_proc.procStats().squashedInsts.value(),
              squash_proc.procStats().squashedInsts.value());
    // Keeping unrelated work must not be slower than discarding it.
    EXPECT_LE(sel_proc.procStats().cycles.value(),
              squash_proc.procStats().cycles.value() * 102 / 100);
}


// The same equivalence matrix on the small (Figure 1) machine, whose
// tighter window/LSQ/store-buffer limits stress structural stalls.
class EquivalenceTestW64
    : public ::testing::TestWithParam<std::pair<LsqModel, SpecPolicy>>
{
};

TEST_P(EquivalenceTestW64, ViolationKernelOnSmallMachine)
{
    auto [model, policy] = GetParam();
    Program prog = violationProgram();
    PrepassResult golden = runPrepass(prog);
    SimConfig cfg = withPolicy(makeW64Config(), model, policy);
    cfg.maxCycles = 2'000'000;
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint)
        << configName(model, policy);
    for (unsigned r = 0; r < num_arch_regs; ++r) {
        EXPECT_EQ(proc.archState().regs[r], golden.finalState.regs[r])
            << configName(model, policy) << " register " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsW64, EquivalenceTestW64, ::testing::ValuesIn(all_configs),
    [](const auto &info) {
        std::string n = configName(info.param.first, info.param.second);
        for (char &c : n) {
            if (c == '/')
                c = '_';
        }
        return n;
    });

TEST(PipelineTest, SampledPhasesUnderEveryPolicy)
{
    // The sampling methodology must preserve semantics under every
    // speculation policy, not just naive.
    Program prog = violationProgram(300);
    PrepassResult golden = runPrepass(prog);
    for (auto [model, policy] : all_configs) {
        SimConfig cfg = withPolicy(makeW128Config(), model, policy);
        Processor proc(cfg, prog, &golden.deps);
        while (!proc.halted()) {
            proc.runTiming(120);
            if (proc.halted())
                break;
            if (proc.fastForward(80) == 0)
                break;
        }
        EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint)
            << configName(model, policy);
    }
}

TEST(PipelineTest, TinyWindowStillCorrect)
{
    // Degenerate machines (window 4, single-issue-ish) exercise every
    // structural-stall path.
    Program prog = recurrenceProgram(80);
    PrepassResult golden = runPrepass(prog);
    SimConfig cfg = withPolicy(makeWindowConfig(4), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.core.issueWidth = 2;
    cfg.core.commitWidth = 2;
    cfg.core.memPorts = 1;
    cfg.core.fuCopies = 1;
    cfg.core.lsqInputPorts = 1;
    cfg.maxCycles = 5'000'000;
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint);
}

// ---------------------------------------------------------------------
// Byte-wise forwarding-source tracking (the partial-overlap violation
// hole): a load that forwarded SOME bytes from a younger store must
// still be flagged when an older store writes one of its OTHER bytes.
// ---------------------------------------------------------------------

TEST(ByteWiseViolation, DetectedUnderSquashRecovery)
{
    Program prog = byteWiseViolationProgram();
    PrepassResult golden = runPrepass(prog);
    ASSERT_TRUE(golden.halted);
    RunResult timed =
        runTimed(prog, LsqModel::NAS, SpecPolicy::Naive, 0,
                 &golden.deps);
    expectMatchesFunctional(prog, golden, timed, "NAS/NAV byte-wise");
    EXPECT_GE(timed.violations, 1u)
        << "the stale byte 0 must be detected as a violation";
}

TEST(ByteWiseViolation, DetectedUnderSelectiveRecovery)
{
    Program prog = byteWiseViolationProgram();
    PrepassResult golden = runPrepass(prog);
    ASSERT_TRUE(golden.halted);
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.mdp.recovery = RecoveryModel::Selective;
    cfg.maxCycles = 2'000'000;
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    EXPECT_GE(proc.procStats().memOrderViolations.value(), 1u);
    for (unsigned r = 0; r < num_arch_regs; ++r) {
        EXPECT_EQ(proc.archState().regs[r], golden.finalState.regs[r])
            << "register " << r;
    }
}

TEST(StoreBufferEntry, OverlapAtTopOfAddressSpace)
{
    // addr + size overflowing to zero must not hide an overlap (or
    // invent one across the wrap).
    SbEntry e;
    e.addr = ~Addr(0) - 3; // writes the top 4 bytes
    e.size = 4;
    e.addrValid = true;
    EXPECT_TRUE(e.overlaps(~Addr(0) - 1, 2));
    EXPECT_TRUE(e.overlaps(~Addr(0), 1));
    EXPECT_TRUE(e.overlaps(~Addr(0) - 7, 8));
    EXPECT_FALSE(e.overlaps(0, 4));
    EXPECT_FALSE(e.overlaps(~Addr(0) - 7, 4));
    EXPECT_TRUE(e.coversByte(~Addr(0)));
    EXPECT_TRUE(e.coversByte(~Addr(0) - 3));
    EXPECT_FALSE(e.coversByte(0));
    EXPECT_FALSE(e.coversByte(~Addr(0) - 4));
}

TEST(StoreBufferIndex, BarrierSetFollowsEveryLifecycleStep)
{
    // The STORE gate asks the store buffer for the oldest unexecuted
    // barrier store. Every mutation keeps that set in step with the
    // entries, and selfCheck() rebuilds it and compares.
    StoreBuffer sb(8);
    auto dispatch = [&sb](InstSeqNum seq, bool barrier) {
        SbEntry e;
        e.seq = seq;
        e.traceIdx = seq;
        e.pc = 0x1000 + 4 * seq;
        e.size = 4;
        e.barrier = barrier;
        return sb.allocate(e);
    };
    auto execute = [&sb](size_t slot, Addr addr, Tick now) {
        sb.postAddr(slot, addr, now, now);
        sb.postData(slot, 0xab);
        sb.setExecuted(slot, now);
    };

    size_t s10 = dispatch(10, true);
    size_t s20 = dispatch(20, false);
    dispatch(30, true);
    EXPECT_EQ(sb.selfCheck(0), "");
    EXPECT_FALSE(sb.barrierOlderThan(10));
    EXPECT_TRUE(sb.barrierOlderThan(11));

    execute(s10, 0x100, 1);
    EXPECT_EQ(sb.selfCheck(1), "");
    EXPECT_FALSE(sb.barrierOlderThan(30));
    EXPECT_TRUE(sb.barrierOlderThan(31));

    sb.invalidateForReplay(s10); // a selective replay re-arms it
    EXPECT_EQ(sb.selfCheck(2), "");
    EXPECT_TRUE(sb.barrierOlderThan(11));

    execute(s10, 0x100, 3);
    execute(s20, 0x200, 3);
    sb.squashYoungerThan(20); // drops the unexecuted barrier 30
    EXPECT_EQ(sb.selfCheck(4), "");
    EXPECT_FALSE(sb.barrierOlderThan(100));

    size_t s40 = dispatch(40, true);
    EXPECT_TRUE(sb.barrierOlderThan(41));
    for (size_t slot : {s10, s20}) {
        sb.slot(slot).committed = true;
        sb.slot(slot).released = true;
        sb.popFront();
        EXPECT_EQ(sb.selfCheck(5), "");
    }
    EXPECT_EQ(sb.size(), 1u);
    EXPECT_TRUE(sb.barrierOlderThan(41));
    execute(s40, 0x400, 6);
    EXPECT_EQ(sb.selfCheck(6), "");
    EXPECT_FALSE(sb.barrierOlderThan(100));

    // A barrier flag written behind the buffer's back is caught.
    size_t s50 = dispatch(50, false);
    sb.slot(s50).barrier = true;
    EXPECT_NE(sb.selfCheck(7).find("unexecutedBarriers"),
              std::string::npos);
}

TEST(StoreBufferIndex, ForwardingTakesYoungestOlderWriterPerByte)
{
    StoreBuffer sb(8);
    auto store = [&sb](InstSeqNum seq, Addr addr, unsigned size,
                       uint64_t data) {
        SbEntry e;
        e.seq = seq;
        e.traceIdx = seq;
        e.size = size;
        size_t slot = sb.allocate(e);
        sb.postAddr(slot, addr, 0, 0);
        sb.postData(slot, data);
        sb.setExecuted(slot, 0);
        return slot;
    };
    auto fwd = [&sb](Addr addr, unsigned size, InstSeqNum before,
                     uint64_t &value, InstSeqNum *sources) {
        value = 0;
        return sb.forward(addr, size, before, value, sources);
    };
    size_t s10 = store(10, 0x100, 4, 0x13121110); // [0x100, 0x104)
    store(20, 0x102, 4, 0x25242322);              // [0x102, 0x106)
    // Address posted, data still pending: never a forwarding source.
    SbEntry pending;
    pending.seq = 30;
    pending.traceIdx = 30;
    pending.size = 8;
    sb.postAddr(sb.allocate(pending), 0x100, 0, 0);

    uint64_t v = 0;
    InstSeqNum src[8] = {};
    // Overlapping byte: the youngest older writer wins, bounded by
    // `before`.
    EXPECT_EQ(fwd(0x102, 1, 100, v, src), 1u);
    EXPECT_EQ(src[0], 20u);
    EXPECT_EQ(v, 0x22u);
    EXPECT_EQ(fwd(0x102, 1, 20, v, src), 1u);
    EXPECT_EQ(src[0], 10u);
    EXPECT_EQ(v, 0x12u);
    EXPECT_EQ(fwd(0x102, 1, 10, v, src), 0u);
    EXPECT_EQ(fwd(0x106, 1, 100, v, src), 0u);

    // A partial overlap from two stores splits byte by byte; bytes
    // neither writes are left to memory.
    std::fill(std::begin(src), std::end(src), 99);
    EXPECT_EQ(fwd(0x100, 8, 100, v, src), 0x3fu);
    EXPECT_EQ(v, 0x252423221110u);
    EXPECT_EQ((std::vector<InstSeqNum>(src, src + 8)),
              (std::vector<InstSeqNum>{10, 10, 20, 20, 20, 20, 99, 99}));
    // Without sources, the value alone.
    EXPECT_EQ(fwd(0x101, 4, 15, v, nullptr), 0x7u);
    EXPECT_EQ(v, 0x131211u);

    // Retiring the older store leaves the younger one's bytes.
    sb.slot(s10).committed = true;
    sb.slot(s10).released = true;
    sb.popFront();
    EXPECT_EQ(fwd(0x100, 1, 100, v, src), 0u);
    EXPECT_EQ(fwd(0x105, 1, 100, v, src), 1u);
    EXPECT_EQ(src[0], 20u);
    EXPECT_EQ(v, 0x25u);
    EXPECT_EQ(sb.selfCheck(0), "");
}

TEST(StoreBufferIndex, QueriesMatchBruteForceAcrossFifoWraps)
{
    // Random lifecycles on a small buffer, so the FIFO wraps many
    // times; after every step each query must equal a scan of the
    // resident entries, oldest to youngest.
    //
    // Addresses come from three regions, offset 0-19 from the region's
    // base, so accesses straddle 8-byte blocks: a low one, one exactly
    // 1,024 blocks of 8 bytes above it (the same buckets of the
    // forwarding filter, so a store there makes the filter pass a load
    // it cannot feed), and the top of the address space, where an
    // access's bytes wrap past ~0 to 0-6 (no access starts there).
    StoreBuffer sb(8);
    Random rng(2024);
    InstSeqNum next_seq = 1;
    TraceIndex next_trace = 0;
    Tick now = 0;
    size_t pops = 0;
    constexpr Addr base = 0x1000;
    const Addr regions[] = {base, base + 1024 * 8, ~Addr{0} - 23};

    auto entries = [&sb]() {
        std::vector<const SbEntry *> v;
        for (size_t i = 0; i < sb.size(); ++i)
            v.push_back(&sb.at(i));
        return v;
    };
    auto pick = [&](auto pred) -> const SbEntry * {
        std::vector<const SbEntry *> c;
        for (const SbEntry *e : entries()) {
            if (pred(*e))
                c.push_back(e);
        }
        return c.empty() ? nullptr : c[rng.below(c.size())];
    };
    auto slot_of = [&sb](const SbEntry *e) { return sb.slotOf(*e); };

    auto check = [&](const char *step) {
        SCOPED_TRACE(step);
        ASSERT_EQ(sb.selfCheck(now), "");
        std::vector<const SbEntry *> all = entries();
        std::vector<InstSeqNum> probes{0, 1, next_seq, next_seq + 5};
        for (const SbEntry *e : all) {
            probes.push_back(e->seq);
            probes.push_back(e->seq + 1);
        }
        for (InstSeqNum p : probes) {
            const SbEntry *want = nullptr;
            for (const SbEntry *e : all)
                want = e->seq == p ? e : want;
            EXPECT_EQ(sb.findSeq(p), want) << "findSeq " << p;
            want = nullptr;
            for (const SbEntry *e : all)
                want = e->traceIdx == p ? e : want;
            EXPECT_EQ(sb.findTraceIdx(p), want) << "findTraceIdx " << p;

            bool unposted = false;
            for (const SbEntry *e : all)
                unposted |= !e->addrValid && e->seq < p;
            EXPECT_EQ(sb.unpostedOlderThan(p), unposted) << p;

            want = nullptr;
            for (const SbEntry *e : all) {
                if (!want && e->barrier && !e->executed && e->seq < p)
                    want = e;
            }
            EXPECT_EQ(sb.barrierOlderThan(p), want) << "barrier " << p;

            for (Synonym syn : {Synonym{0}, Synonym{1}, Synonym{2}}) {
                want = nullptr;
                for (const SbEntry *e : all) {
                    if (!e->committed && e->seq < p &&
                        e->producerSynonym == syn) {
                        want = e;
                    }
                }
                EXPECT_EQ(sb.youngestSynonymProducerBefore(syn, p), want)
                    << "synonym " << syn << " before " << p;
            }

            for (unsigned size : {1u, 2u, 4u, 8u}) {
                for (Addr off = 0; off < 3 * 24; off += 3) {
                    Addr a = regions[off / 24] + off % 24;
                    uint64_t want_value = 0;
                    unsigned want_mask = 0;
                    InstSeqNum want_src[8] = {};
                    for (unsigned i = 0; i < size; ++i) {
                        for (const SbEntry *e : all) {
                            if (e->seq < p && e->addrValid &&
                                e->dataValid && e->coversByte(a + i)) {
                                want_src[i] = e->seq;
                                want_value &=
                                    ~(uint64_t(0xff) << (8 * i));
                                want_value |= uint64_t(e->byteAt(a + i))
                                              << (8 * i);
                                want_mask |= 1u << i;
                            }
                        }
                    }
                    uint64_t value = 0;
                    InstSeqNum src[8] = {};
                    ASSERT_EQ(sb.forward(a, size, p, value, src),
                              want_mask)
                        << "forward 0x" << std::hex << a << std::dec
                        << "/" << size << " before " << p;
                    EXPECT_EQ(value, want_value);
                    for (unsigned i = 0; i < size; ++i)
                        EXPECT_EQ(src[i], want_src[i]) << "byte " << i;
                }
            }
        }
    };

    check("empty");
    for (int step = 0; step < 2000; ++step) {
        switch (rng.below(9)) {
          case 0:
          case 1:
            if (!sb.full()) {
                SbEntry e;
                next_seq += 1 + rng.below(3); // squashes leave gaps
                e.seq = next_seq;
                e.traceIdx = next_trace++;
                e.pc = 0x400 + 4 * rng.below(8);
                e.size = 1u << rng.below(4);
                e.barrier = rng.chance(0.3);
                if (rng.chance(0.6))
                    e.producerSynonym = static_cast<Synonym>(rng.below(3));
                sb.allocate(e);
                check("allocate");
            }
            break;
          case 2:
            if (const SbEntry *e =
                    pick([](const SbEntry &x) { return !x.addrValid; })) {
                Addr a = regions[rng.below(3)] + rng.below(20);
                sb.postAddr(slot_of(e), a, now + rng.below(3), now);
                check("postAddr");
            }
            break;
          case 3:
            if (const SbEntry *e =
                    pick([](const SbEntry &x) { return !x.dataValid; })) {
                sb.postData(slot_of(e), rng.next());
                check("postData");
            }
            break;
          case 4:
            if (const SbEntry *e = pick([](const SbEntry &x) {
                    return x.addrValid && x.dataValid && !x.executed;
                })) {
                sb.setExecuted(slot_of(e), now);
                check("setExecuted");
            }
            break;
          case 5:
            if (const SbEntry *e = pick([](const SbEntry &x) {
                    return !x.committed && (x.addrValid || x.dataValid);
                })) {
                sb.invalidateForReplay(slot_of(e));
                check("invalidateForReplay");
            }
            break;
          case 6: {
            // Commit in order, up to the oldest unexecuted entry;
            // release and retire the committed head.
            for (const SbEntry *e : entries()) {
                if (!e->executed)
                    break;
                sb.slot(slot_of(e)).committed = true;
            }
            if (!sb.empty() && sb.front().committed &&
                rng.chance(0.7)) {
                sb.front().released = true;
                sb.popFront();
                ++pops;
                check("popFront");
            }
            break;
          }
          case 7:
            if (!sb.empty() && rng.chance(0.2)) {
                const SbEntry &e = sb.at(rng.below(sb.size()));
                sb.squashYoungerThan(e.seq);
                // Refetch reuses the squashed entries' trace indices.
                next_trace = sb.back().traceIdx + 1;
                check("squash");
            }
            break;
          default:
            ++now;
            sb.expireVisibleAddrs(now);
            check("tick");
            break;
        }
    }
    // Enough traffic that the 8-entry FIFO wrapped at least 3 times.
    EXPECT_GE(pops, 24u);
}

TEST(PipelineTest, StoreBufferPressureStallsButStaysCorrect)
{
    // A store burst larger than the store buffer forces dispatch
    // stalls on a full buffer.
    ProgramBuilder b;
    Addr buf = b.dataAlloc(4 * 512);
    b.la(ir(1), buf);
    b.addi(ir(2), reg_zero, 400);
    auto loop = b.hereLabel();
    b.sw(ir(2), ir(1), 0);
    b.addi(ir(1), ir(1), 4);
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();
    Program prog = b.build();
    PrepassResult golden = runPrepass(prog);

    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.core.storeBufferSize = 8; // tiny
    cfg.maxCycles = 5'000'000;
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint);
    EXPECT_EQ(proc.procStats().committedStores.value(), 400u);
}

TEST(IssueWalk, VisitsPerCycleOnFig2Matrix)
{
    // The issue walk visits only instructions that can act: a
    // refused load parks until the event that can change the gate's
    // answer, and an instruction missing an operand waits for it.
    // The bound sits well above the ~3 visits per cycle this takes
    // and far below the ~66 of visiting every unissued instruction.
    harness::Runner runner(4000);
    std::vector<std::string> names = workloads::intNames();
    names.insert(names.end(), workloads::fpNames().begin(),
                 workloads::fpNames().end());
    uint64_t visits = 0;
    uint64_t cycles = 0;
    for (const std::string &name : names) {
        for (SpecPolicy policy :
             {SpecPolicy::No, SpecPolicy::Naive, SpecPolicy::Oracle}) {
            SimConfig cfg =
                withPolicy(makeW128Config(), LsqModel::NAS, policy);
            Processor proc(cfg, runner.workload(name).program,
                           &runner.prepass(name).deps);
            proc.run();
            ASSERT_TRUE(proc.halted()) << name;
            visits += proc.issueVisits();
            cycles += proc.curCycle();
        }
    }
    ASSERT_GT(cycles, 0u);
    double per_cycle = static_cast<double>(visits) / cycles;
    RecordProperty("visits_per_cycle", std::to_string(per_cycle));
    EXPECT_LE(per_cycle, 10.0)
        << visits << " visits over " << cycles << " cycles";
}

} // anonymous namespace
} // namespace cwsim
