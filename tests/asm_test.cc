/**
 * @file
 * Tests for the textual assembler: directives, operand forms, label
 * resolution, error handling, and end-to-end execution of assembled
 * programs — including equivalence with the same kernel written via
 * ProgramBuilder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "isa/asm_parser.hh"
#include "isa/builder.hh"
#include "isa/exec_fn.hh"
#include "isa/executor.hh"
#include "mem/functional_memory.hh"

namespace cwsim
{
namespace
{

ArchState
runToHalt(const Program &prog, FunctionalMemory &mem,
          uint64_t budget = 1'000'000)
{
    prog.loadInto(mem);
    Executor ex(mem, prog.entry());
    ex.run(budget);
    EXPECT_TRUE(ex.halted());
    return ex.state();
}

TEST(AsmTest, MinimalProgram)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        addi r1, r0, 5
        addi r2, r1, 7
        halt
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(1)), 5u);
    EXPECT_EQ(state.readReg(ir(2)), 12u);
}

TEST(AsmTest, CommentsAndBlankLines)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        # leading comment

        addi r1, r0, 3   # trailing comment
        halt
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(1)), 3u);
}

TEST(AsmTest, LoopWithBackwardBranch)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        addi r1, r0, 10
        addi r2, r0, 0
    loop:
        add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(2)), 55u);
}

TEST(AsmTest, ForwardBranchAndJump)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        addi r1, r0, 1
        beq  r1, r0, never
        j    skip
    never:
        addi r2, r0, 99
    skip:
        addi r3, r0, 7
        halt
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(2)), 0u);
    EXPECT_EQ(state.readReg(ir(3)), 7u);
}

TEST(AsmTest, DataDirectivesAndMemoryOps)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        .data
    nums:   .word 10 20 30
    bytes:  .byte 1 2 3 4
            .align 8
    pi:     .double 3.5
        .text
        la   r1, nums
        lw   r2, 0(r1)
        lw   r3, 4(r1)
        add  r4, r2, r3
        la   r5, bytes
        lbu  r6, 3(r5)
        la   r7, pi
        ld.f f0, 0(r7)
        fadd.d f1, f0, f0
        sd.f f1, 0(r7)
        halt
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(4)), 30u);
    EXPECT_EQ(state.readReg(ir(6)), 4u);
    EXPECT_DOUBLE_EQ(exec::asDouble(state.readReg(fr(1))), 7.0);
}

TEST(AsmTest, SpaceReservesZeroedBytes)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        .data
    buf:    .space 16
    mark:   .word 0xff
        .text
        la  r1, buf
        lw  r2, 0(r1)     # zero
        lw  r3, 16(r1)    # the marker word
        halt
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(2)), 0u);
    EXPECT_EQ(state.readReg(ir(3)), 0xffu);
}

TEST(AsmTest, CallAndReturn)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        addi r4, r0, 6
        jal  double_it
        addi r6, r5, 1
        halt
    double_it:
        add  r5, r4, r4
        jr   r31
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(5)), 12u);
    EXPECT_EQ(state.readReg(ir(6)), 13u);
}

TEST(AsmTest, PseudoOps)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        li  r1, 0xdeadbeef
        mv  r2, r1
        nop
        li  r3, -5
        halt
    )"),
                                mem);
    EXPECT_EQ(static_cast<uint32_t>(state.readReg(ir(1))), 0xdeadbeefu);
    EXPECT_EQ(state.readReg(ir(2)), state.readReg(ir(1)));
    EXPECT_EQ(static_cast<int32_t>(state.readReg(ir(3))), -5);
}

TEST(AsmTest, TwoOperandFpOps)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        .data
    x:  .double 2.5
        .text
        la    r1, x
        ld.f  f0, 0(r1)
        fneg  f1, f0
        fmov  f2, f1
        cvt.w.d r2, f0
        cvt.d.w f3, r2
        halt
    )"),
                                mem);
    EXPECT_DOUBLE_EQ(exec::asDouble(state.readReg(fr(2))), -2.5);
    EXPECT_EQ(state.readReg(ir(2)), 2u);
    EXPECT_DOUBLE_EQ(exec::asDouble(state.readReg(fr(3))), 2.0);
}

TEST(AsmTest, HexAndNegativeImmediates)
{
    FunctionalMemory mem;
    ArchState state = runToHalt(assembleText(R"(
        addi r1, r0, 0x10
        addi r2, r0, -16
        add  r3, r1, r2
        ori  r4, r0, 0xbeef
        halt
    )"),
                                mem);
    EXPECT_EQ(state.readReg(ir(3)), 0u);
    EXPECT_EQ(state.readReg(ir(4)), 0xbeefu);
}

TEST(AsmTest, MatchesBuilderProgram)
{
    // The same kernel through both front ends must produce identical
    // architectural results.
    ProgramBuilder b;
    Addr arr = b.dataAlloc(4 * 8);
    for (int i = 0; i < 8; ++i)
        b.dataW32(arr + 4 * i, static_cast<uint32_t>(i * i));
    b.la(ir(1), arr);
    b.addi(ir(2), reg_zero, 8);
    b.addi(ir(3), reg_zero, 0);
    auto loop = b.hereLabel();
    b.lw(ir(4), ir(1), 0);
    b.add(ir(3), ir(3), ir(4));
    b.addi(ir(1), ir(1), 4);
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();

    FunctionalMemory mem_builder;
    ArchState a = runToHalt(b.build(), mem_builder);

    FunctionalMemory mem_asm;
    ArchState c = runToHalt(assembleText(R"(
        .data
    arr: .word 0 1 4 9 16 25 36 49
        .text
        la   r1, arr
        addi r2, r0, 8
        addi r3, r0, 0
    loop:
        lw   r4, 0(r1)
        add  r3, r3, r4
        addi r1, r1, 4
        addi r2, r2, -1
        bne  r2, r0, loop
        halt
    )"),
                            mem_asm);
    EXPECT_EQ(a.readReg(ir(3)), c.readReg(ir(3)));
    EXPECT_EQ(a.readReg(ir(3)), 140u);
}

TEST(AsmDeathTest, UnknownMnemonic)
{
    EXPECT_EXIT(assembleText("frobnicate r1, r2\nhalt\n"),
                ::testing::ExitedWithCode(1), "unknown mnemonic");
}

TEST(AsmDeathTest, UnknownLabel)
{
    EXPECT_EXIT(assembleText("j nowhere\nhalt\n"),
                ::testing::ExitedWithCode(1), "unknown label");
}

TEST(AsmDeathTest, DuplicateLabel)
{
    EXPECT_EXIT(assembleText("a:\nnop\na:\nhalt\n"),
                ::testing::ExitedWithCode(1), "defined twice");
}

TEST(AsmDeathTest, BadRegister)
{
    EXPECT_EXIT(assembleText("addi r99, r0, 1\nhalt\n"),
                ::testing::ExitedWithCode(1), "bad register");
}

TEST(AsmDeathTest, AbsurdlyLargeRegisterNumber)
{
    // A digit string past unsigned-long range used to escape as an
    // uncaught std::out_of_range from the register parser; it must
    // take the ordinary bad-register diagnostic path.
    EXPECT_EXIT(
        assembleText("addi r99999999999999999999, r0, 1\nhalt\n"),
        ::testing::ExitedWithCode(1), "bad register");
}

TEST(AsmDeathTest, WrongOperandCount)
{
    EXPECT_EXIT(assembleText("add r1, r2\nhalt\n"),
                ::testing::ExitedWithCode(1), "expects 3 operands");
}

TEST(AsmDeathTest, InstructionInDataSegment)
{
    EXPECT_EXIT(assembleText(".data\naddi r1, r0, 1\n"),
                ::testing::ExitedWithCode(1), "instruction in .data");
}


TEST(AsmDeathTest, DataSegmentPastAddressSpace)
{
    // Effective addresses wrap at 32 bits, so a data segment ending
    // past 2^32 is unreachable; these used to die on std::bad_alloc.
    EXPECT_EXIT(assembleText(".data\n.space 0x7fffffffffffffff\n"),
                ::testing::ExitedWithCode(1), "past 2\\^32");
    EXPECT_EXIT(assembleText(".data\n.byte 1\n"
                             ".align 0x4000000000000000\n"),
                ::testing::ExitedWithCode(1), "past 2\\^32");
    // The segment starts at 0x100000: one byte past 2^32 is too many.
    EXPECT_EXIT(assembleText(".data\n.space 4293918721\n"),
                ::testing::ExitedWithCode(1), "past 2\\^32");
}

TEST(AsmDeathTest, DoubleWithTrailingJunk)
{
    // std::stod stopped at the 'a' and accepted 1.5.
    EXPECT_EXIT(assembleText(".data\nx: .double 1.5abc\n"),
                ::testing::ExitedWithCode(1), "bad .double value");
    EXPECT_EXIT(assembleText(".data\nx: .double inf\n"),
                ::testing::ExitedWithCode(1), "bad .double value");
}

TEST(AsmTest, LargeSpaceReservesWithoutMaterializing)
{
    // .space only reserves: a 4 GB gap (which used to be zero-filled
    // byte by byte, for minutes) costs nothing, and the data after it
    // lands at the right address.
    Program prog = assembleText(".data\n"
                                "gap: .space 4000000000\n"
                                "val: .word 7\n"
                                "     .space 293918716\n" // to 2^32
                                ".text\n"
                                "la r1, val\n"
                                "lw r2, 0(r1)\n"
                                "la r3, gap\n"
                                "lw r4, 16(r3)\n"
                                "halt\n");
    FunctionalMemory mem;
    ArchState state = runToHalt(prog, mem);
    EXPECT_EQ(static_cast<uint32_t>(state.readReg(ir(1))),
              0x100000u + 4000000000u);
    EXPECT_EQ(state.readReg(ir(2)), 7u);
    EXPECT_EQ(state.readReg(ir(4)), 0u); // reserved bytes read as zero
    EXPECT_LT(mem.pageCount(), 8u);
}

TEST(AsmTest, AssembleFileRoundTrip)
{
    const char *path = "asm_test_tmp.s";
    {
        std::ofstream out(path);
        out << "addi r1, r0, 9\n"
               "slli r2, r1, 2\n"
               "halt\n";
    }
    Program prog = assembleFile(path);
    std::remove(path);
    FunctionalMemory mem;
    ArchState state = runToHalt(prog, mem);
    EXPECT_EQ(state.readReg(ir(2)), 36u);
}

TEST(AsmDeathTest, MissingFile)
{
    EXPECT_EXIT(assembleFile("/nonexistent/kernel.s"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // anonymous namespace
} // namespace cwsim
