#include <gtest/gtest.h>

#include <utility>

#include "src/arch/scoreboard.hpp"
#include "src/common/log.hpp"

namespace bowsim {
namespace {

Instruction
movInst(int dst, int src)
{
    Instruction i;
    i.op = Opcode::Mov;
    i.dst = Operand::reg(dst);
    i.src[0] = Operand::reg(src);
    return i;
}

Instruction
setpInst(int dstPred, int src)
{
    Instruction i;
    i.op = Opcode::Setp;
    i.dst = Operand::pred(dstPred);
    i.src[0] = Operand::reg(src);
    i.src[1] = Operand::immediate(0);
    return i;
}

TEST(Scoreboard, CleanBoardAllowsIssue)
{
    Scoreboard sb(8, 2);
    EXPECT_TRUE(sb.canIssue(movInst(1, 2)));
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, RawHazardBlocks)
{
    Scoreboard sb(8, 2);
    Instruction producer = movInst(1, 2);
    sb.reserve(producer);
    EXPECT_FALSE(sb.canIssue(movInst(3, 1)));  // reads %r1
    sb.release(producer);
    EXPECT_TRUE(sb.canIssue(movInst(3, 1)));
}

TEST(Scoreboard, WawHazardBlocks)
{
    Scoreboard sb(8, 2);
    Instruction producer = movInst(1, 2);
    sb.reserve(producer);
    EXPECT_FALSE(sb.canIssue(movInst(1, 3)));  // writes %r1 again
    sb.release(producer);
    EXPECT_TRUE(sb.canIssue(movInst(1, 3)));
}

TEST(Scoreboard, IndependentRegistersDoNotBlock)
{
    Scoreboard sb(8, 2);
    sb.reserve(movInst(1, 2));
    EXPECT_TRUE(sb.canIssue(movInst(3, 4)));
}

TEST(Scoreboard, PredicatePendingBlocksGuardedInstruction)
{
    Scoreboard sb(8, 2);
    Instruction setp = setpInst(1, 2);
    sb.reserve(setp);
    Instruction guarded = movInst(3, 4);
    guarded.guard = 1;
    EXPECT_FALSE(sb.canIssue(guarded));
    sb.release(setp);
    EXPECT_TRUE(sb.canIssue(guarded));
}

TEST(Scoreboard, PredicateSourceBlocksSelp)
{
    Scoreboard sb(8, 2);
    Instruction setp = setpInst(0, 1);
    sb.reserve(setp);
    Instruction selp;
    selp.op = Opcode::Selp;
    selp.dst = Operand::reg(2);
    selp.src[0] = Operand::reg(3);
    selp.src[1] = Operand::reg(4);
    selp.src[2] = Operand::pred(0);
    EXPECT_FALSE(sb.canIssue(selp));
    sb.release(setp);
    EXPECT_TRUE(sb.canIssue(selp));
}

TEST(Scoreboard, OutstandingCountsReservations)
{
    Scoreboard sb(8, 2);
    Instruction a = movInst(1, 2);
    Instruction b = setpInst(0, 3);
    sb.reserve(a);
    sb.reserve(b);
    EXPECT_EQ(sb.outstanding(), 2u);
    sb.release(a);
    EXPECT_EQ(sb.outstanding(), 1u);
    sb.release(b);
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, StoreHasNoDestinationAndNeverReserves)
{
    Scoreboard sb(8, 2);
    Instruction st;
    st.op = Opcode::St;
    st.src[0] = Operand::reg(1);
    st.src[1] = Operand::reg(2);
    sb.reserve(st);
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, PanicsOnDoubleReserveAndIdleRelease)
{
    Scoreboard sb(8, 2);
    Instruction a = movInst(1, 2);
    sb.reserve(a);
    EXPECT_THROW(sb.reserve(a), PanicError);
    sb.release(a);
    EXPECT_THROW(sb.release(a), PanicError);
}

TEST(Scoreboard, WideRegisterFileKeepsTheVectorPath)
{
    // Indices of 64 and above sit past the masks: RAW, WAW and release
    // behave as they do below 64, for registers and predicates.
    Scoreboard sb(80, 70);
    Instruction producer = movInst(70, 65);
    sb.reserve(producer);
    EXPECT_FALSE(sb.canIssue(movInst(1, 70)));  // RAW on %r70
    EXPECT_FALSE(sb.canIssue(movInst(70, 1)));  // WAW on %r70
    EXPECT_TRUE(sb.canIssue(movInst(71, 65)));
    Instruction setp = setpInst(66, 79);
    sb.reserve(setp);
    Instruction guarded = movInst(3, 4);
    guarded.guard = 66;
    EXPECT_FALSE(sb.canIssue(guarded));
    EXPECT_EQ(sb.outstanding(), 2u);
    sb.release(producer);
    EXPECT_TRUE(sb.canIssue(movInst(1, 70)));
    EXPECT_FALSE(sb.canIssue(guarded));
    sb.release(setp);
    EXPECT_TRUE(sb.canIssue(guarded));
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, HandBuiltInstructionWalksItsOperandsOverTheMasks)
{
    // A hand-built instruction has no hazard masks and takes the operand
    // walk; the same instruction with its masks filled in must agree.
    Scoreboard sb(8, 2);
    sb.reserve(movInst(1, 2));
    sb.reserve(setpInst(1, 3));
    Instruction guarded = movInst(3, 4);
    guarded.guard = 1;
    const std::pair<Instruction, bool> cases[] = {
        {movInst(3, 1), false},  // RAW on %r1
        {movInst(1, 3), false},  // WAW on %r1
        {guarded, false},        // guard %p1 pending
        {setpInst(1, 4), false},  // WAW on %p1
        {movInst(3, 4), true},
        {setpInst(0, 4), true},
    };
    for (const auto &[inst, clear] : cases) {
        ASSERT_FALSE(inst.hazardMasksValid);
        EXPECT_EQ(sb.canIssue(inst), clear) << toString(inst);
        Instruction masked = inst;
        computeHazardMasks(masked);
        ASSERT_TRUE(masked.hazardMasksValid);
        EXPECT_EQ(sb.canIssue(masked), clear) << toString(inst);
    }
}

TEST(Scoreboard, PanicsOnDoubleReserveAndIdleReleaseInBothRanges)
{
    Scoreboard sb(80, 70);
    for (const Instruction &a :
         {movInst(5, 2), movInst(70, 2), setpInst(1, 2), setpInst(66, 2)}) {
        sb.reserve(a);
        EXPECT_THROW(sb.reserve(a), PanicError) << toString(a);
        sb.release(a);
        EXPECT_THROW(sb.release(a), PanicError) << toString(a);
    }
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, RejectsAnIndexOutsideTheRegisterFile)
{
    Scoreboard sb(8, 2);
    EXPECT_THROW(sb.reserve(movInst(8, 0)), PanicError);
    EXPECT_THROW(sb.release(movInst(8, 0)), PanicError);
    EXPECT_THROW(sb.reserve(movInst(-1, 0)), PanicError);
    EXPECT_THROW(sb.reserve(setpInst(2, 0)), PanicError);
    EXPECT_TRUE(sb.idle());
    // Past a wide file too, and a source on the operand walk.
    Scoreboard wide(80, 2);
    EXPECT_THROW(wide.reserve(movInst(80, 0)), PanicError);
    wide.reserve(movInst(1, 0));
    EXPECT_THROW(wide.canIssue(movInst(2, 90)), PanicError);
    EXPECT_EQ(wide.outstanding(), 1u);
}

TEST(Scoreboard, ImmediateAndSpecialOperandsNeverBlock)
{
    Scoreboard sb(8, 2);
    sb.reserve(movInst(1, 2));
    Instruction i;
    i.op = Opcode::Mov;
    i.dst = Operand::reg(3);
    i.src[0] = Operand::special(SpecialReg::TidX);
    EXPECT_TRUE(sb.canIssue(i));
    i.src[0] = Operand::immediate(5);
    EXPECT_TRUE(sb.canIssue(i));
}

}  // namespace
}  // namespace bowsim
