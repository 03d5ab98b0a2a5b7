/**
 * @file
 * Property-based fuzzing of the architectural-equivalence invariant:
 * randomly generated (but guaranteed-terminating) programs must commit
 * IDENTICAL architectural state under the functional interpreter and
 * under the timing core in every speculation configuration. This is the
 * strongest guard against subtle bugs in operand capture, squash
 * recovery, store-buffer forwarding, and the violation/replay paths.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "cpu/processor.hh"
#include "isa/builder.hh"
#include "mdp/oracle.hh"
#include "sim/config.hh"

namespace cwsim
{
namespace
{

/**
 * Generate a random terminating program: a counted outer loop whose
 * body mixes ALU work, loads/stores into two small regions (creating
 * plenty of genuine memory dependences and races), FP arithmetic, and
 * data-dependent forward branches.
 */
Program
randomProgram(uint64_t seed)
{
    Random rng(seed);
    ProgramBuilder b;

    constexpr unsigned region_words = 64;
    Addr region_a = b.dataAlloc(4 * region_words, 8);
    Addr region_b = b.dataAlloc(8 * region_words, 8);
    for (unsigned i = 0; i < region_words; ++i) {
        b.dataW32(region_a + 4 * i,
                  static_cast<uint32_t>(rng.next()));
        b.dataF64(region_b + 8 * i, 0.5 + rng.real());
    }

    const RegId base_a = ir(16), base_b = ir(17), counter = ir(20),
                tmp = ir(15);
    b.la(base_a, region_a);
    b.la(base_b, region_b);
    b.li32(counter, 40 + static_cast<uint32_t>(rng.below(60)));

    auto scratch_int = [&] { return ir(1 + rng.below(12)); };
    auto scratch_fp = [&] { return fr(rng.below(8)); };
    auto word_off = [&] {
        return static_cast<int32_t>(4 * rng.below(region_words));
    };
    auto dword_off = [&] {
        return static_cast<int32_t>(8 * rng.below(region_words));
    };

    auto loop = b.hereLabel();

    unsigned body_len = 10 + static_cast<unsigned>(rng.below(30));
    for (unsigned i = 0; i < body_len; ++i) {
        switch (rng.below(12)) {
          case 0:
            b.add(scratch_int(), scratch_int(), scratch_int());
            break;
          case 1:
            b.mul(scratch_int(), scratch_int(), scratch_int());
            break;
          case 2:
            b.xori(scratch_int(), scratch_int(),
                   static_cast<int32_t>(rng.below(1024)));
            break;
          case 3:
            b.srai(scratch_int(), scratch_int(),
                   static_cast<int32_t>(rng.below(31)));
            break;
          case 4:
            b.lw(scratch_int(), base_a, word_off());
            break;
          case 5:
            b.sw(scratch_int(), base_a, word_off());
            break;
          case 6:
            b.lbu(scratch_int(), base_a, word_off());
            break;
          case 7:
            b.sb(scratch_int(), base_a, word_off());
            break;
          case 8:
            b.ld_f(scratch_fp(), base_b, dword_off());
            break;
          case 9:
            b.sd_f(scratch_fp(), base_b, dword_off());
            break;
          case 10:
            b.fadd_d(scratch_fp(), scratch_fp(), scratch_fp());
            break;
          case 11: {
            // Data-dependent forward skip over 1-3 instructions.
            auto skip = b.newLabel();
            b.slti(tmp, scratch_int(),
                   static_cast<int32_t>(rng.range(-100, 100)));
            b.bne(tmp, reg_zero, skip);
            unsigned skipped = 1 + static_cast<unsigned>(rng.below(3));
            for (unsigned k = 0; k < skipped; ++k) {
                if (rng.chance(0.5))
                    b.lw(scratch_int(), base_a, word_off());
                else
                    b.add(scratch_int(), scratch_int(), scratch_int());
            }
            b.bind(skip);
            break;
          }
        }
    }

    b.addi(counter, counter, -1);
    b.bne(counter, reg_zero, loop);
    b.halt();
    return b.build();
}

/**
 * Directed partial-overlap stressor: every access lands in ONE 16-byte
 * cell, with 1-, 4-, and 8-byte stores and loads at clashing offsets
 * and about half the store data fed through short mul chains so older
 * stores routinely execute after younger ones — the pattern that
 * separates per-byte forwarding-source tracking from a scalar
 * youngest-source summary.
 */
Program
partialOverlapStress(uint64_t seed)
{
    Random rng(seed);
    ProgramBuilder b;

    Addr cell = b.dataAlloc(16, 8);
    for (unsigned i = 0; i < 4; ++i)
        b.dataW32(cell + 4 * i, static_cast<uint32_t>(rng.next()));

    const RegId base = ir(16), counter = ir(20);
    b.la(base, cell);
    b.li32(counter, 24 + static_cast<uint32_t>(rng.below(24)));

    auto scratch_int = [&] { return ir(1 + rng.below(12)); };
    auto scratch_fp = [&] { return fr(rng.below(8)); };

    auto loop = b.hereLabel();

    unsigned body_len = 12 + static_cast<unsigned>(rng.below(20));
    for (unsigned i = 0; i < body_len; ++i) {
        // Half the stores get slow (mul-fed) data.
        auto slow_data = [&](RegId r) {
            if (rng.chance(0.5)) {
                b.mul(r, r, counter);
                b.mul(r, r, r);
            }
            return r;
        };
        switch (rng.below(8)) {
          case 0:
            b.sb(slow_data(scratch_int()), base,
                 static_cast<int32_t>(rng.below(16)));
            break;
          case 1:
            b.sw(slow_data(scratch_int()), base,
                 static_cast<int32_t>(4 * rng.below(4)));
            break;
          case 2:
            // 8-byte store of whatever bits the FP reg holds; pure
            // move, no arithmetic, so arbitrary bit patterns stay
            // deterministic.
            b.sd_f(scratch_fp(), base,
                   static_cast<int32_t>(8 * rng.below(2)));
            break;
          case 3:
            b.lbu(scratch_int(), base,
                  static_cast<int32_t>(rng.below(16)));
            break;
          case 4:
            b.lw(scratch_int(), base,
                 static_cast<int32_t>(4 * rng.below(4)));
            break;
          case 5:
            b.ld_f(scratch_fp(), base,
                   static_cast<int32_t>(8 * rng.below(2)));
            break;
          case 6:
            b.add(scratch_int(), scratch_int(), scratch_int());
            break;
          case 7:
            b.xori(scratch_int(), scratch_int(),
                   static_cast<int32_t>(rng.below(1024)));
            break;
        }
    }

    b.addi(counter, counter, -1);
    b.bne(counter, reg_zero, loop);
    b.halt();
    return b.build();
}

class FuzzEquivalence : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzEquivalence, AllConfigsMatchFunctional)
{
    Program prog = randomProgram(GetParam());
    PrepassResult golden = runPrepass(prog, {2'000'000, false});
    ASSERT_TRUE(golden.halted) << "generator produced a hung program";

    const std::tuple<LsqModel, SpecPolicy, Cycles> configs[] = {
        {LsqModel::NAS, SpecPolicy::No, 0},
        {LsqModel::NAS, SpecPolicy::Naive, 0},
        {LsqModel::NAS, SpecPolicy::Selective, 0},
        {LsqModel::NAS, SpecPolicy::StoreBarrier, 0},
        {LsqModel::NAS, SpecPolicy::SpecSync, 0},
        {LsqModel::NAS, SpecPolicy::Oracle, 0},
        {LsqModel::AS, SpecPolicy::No, 0},
        {LsqModel::AS, SpecPolicy::Naive, 0},
        {LsqModel::AS, SpecPolicy::Naive, 1},
        {LsqModel::AS, SpecPolicy::Naive, 2},
    };

    // Also fuzz the selective-invalidation recovery extension.
    auto run_one = [&](SimConfig cfg, const std::string &what) {
        cfg.maxCycles = 20'000'000;
        Processor proc(cfg, prog, &golden.deps);
        proc.run();
        ASSERT_TRUE(proc.halted()) << what;
        EXPECT_EQ(proc.procStats().commits.value(), golden.instCount)
            << what;
        EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint)
            << what;
        for (unsigned r = 0; r < num_arch_regs; ++r) {
            ASSERT_EQ(proc.archState().regs[r],
                      golden.finalState.regs[r])
                << what << " register " << r;
        }
    };

    {
        SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                                   SpecPolicy::Naive);
        cfg.mdp.recovery = RecoveryModel::Selective;
        run_one(cfg, "NAS/NAV+selective seed " +
                         std::to_string(GetParam()));
    }

    for (auto [model, policy, lat] : configs) {
        SimConfig cfg = withPolicy(makeW128Config(), model, policy, lat);
        cfg.maxCycles = 20'000'000;
        Processor proc(cfg, prog, &golden.deps);
        proc.run();
        std::string what = cfg.name() + "@" + std::to_string(lat) +
                           " seed " + std::to_string(GetParam());
        ASSERT_TRUE(proc.halted()) << what;
        EXPECT_EQ(proc.procStats().commits.value(), golden.instCount)
            << what;
        EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint)
            << what;
        for (unsigned r = 0; r < num_arch_regs; ++r) {
            ASSERT_EQ(proc.archState().regs[r],
                      golden.finalState.regs[r])
                << what << " register " << r;
        }
    }
}

TEST_P(FuzzEquivalence, PartialOverlapStressAllConfigs)
{
    Program prog = partialOverlapStress(GetParam() * 104729 + 7);
    PrepassResult golden = runPrepass(prog, {2'000'000, false});
    ASSERT_TRUE(golden.halted) << "generator produced a hung program";

    const std::pair<LsqModel, SpecPolicy> configs[] = {
        {LsqModel::NAS, SpecPolicy::No},
        {LsqModel::NAS, SpecPolicy::Naive},
        {LsqModel::NAS, SpecPolicy::Selective},
        {LsqModel::NAS, SpecPolicy::StoreBarrier},
        {LsqModel::NAS, SpecPolicy::SpecSync},
        {LsqModel::NAS, SpecPolicy::Oracle},
        {LsqModel::AS, SpecPolicy::No},
        {LsqModel::AS, SpecPolicy::Naive},
        // Not a paper config, but daemon-churn runs it: an AS gate
        // with violation detection off.
        {LsqModel::AS, SpecPolicy::Oracle},
    };

    for (auto [model, policy] : configs) {
        for (RecoveryModel recovery :
             {RecoveryModel::Squash, RecoveryModel::Selective}) {
            SimConfig cfg = withPolicy(makeW128Config(), model, policy);
            cfg.mdp.recovery = recovery;
            cfg.maxCycles = 20'000'000;
            // Level 2 re-checks the ready set and every parked load
            // each cycle. Delayed address postings let an AS store be
            // released before its address becomes visible.
            cfg.check.level = 2;
            cfg.check.faults.seed = GetParam();
            cfg.check.faults.storeAddrDelayRate = 0.10;
            cfg.check.faults.storeAddrDelay = 6;
            Processor proc(cfg, prog, &golden.deps);
            proc.run();
            std::string what =
                cfg.name() +
                (recovery == RecoveryModel::Selective ? "+sel" : "") +
                " seed " + std::to_string(GetParam());
            ASSERT_TRUE(proc.halted()) << what;
            EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint)
                << what;
            for (unsigned r = 0; r < num_arch_regs; ++r) {
                ASSERT_EQ(proc.archState().regs[r],
                          golden.finalState.regs[r])
                    << what << " register " << r;
            }
        }
    }
}

TEST_P(FuzzEquivalence, SmallWindowAlsoMatches)
{
    Program prog = randomProgram(GetParam() * 7919 + 13);
    PrepassResult golden = runPrepass(prog, {2'000'000, false});
    ASSERT_TRUE(golden.halted);

    SimConfig cfg = withPolicy(makeW64Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.maxCycles = 20'000'000;
    Processor proc(cfg, prog, &golden.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());
    EXPECT_EQ(proc.memory().fingerprint(), golden.memFingerprint);
    for (unsigned r = 0; r < num_arch_regs; ++r) {
        ASSERT_EQ(proc.archState().regs[r], golden.finalState.regs[r])
            << "register " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         ::testing::Range<uint64_t>(1, 21));

} // anonymous namespace
} // namespace cwsim
