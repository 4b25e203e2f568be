#include <gtest/gtest.h>

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
    Scoreboard sb;
    EXPECT_TRUE(sb.canIssue(hazardsOf(movInst(1, 2))));
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, RawHazardBlocks)
{
    Scoreboard sb;
    Instruction producer = movInst(1, 2);
    sb.reserve(producer);
    EXPECT_FALSE(sb.canIssue(hazardsOf(movInst(3, 1))));  // reads %r1
    sb.release(producer);
    EXPECT_TRUE(sb.canIssue(hazardsOf(movInst(3, 1))));
}

TEST(Scoreboard, WawHazardBlocks)
{
    Scoreboard sb;
    Instruction producer = movInst(1, 2);
    sb.reserve(producer);
    EXPECT_FALSE(sb.canIssue(hazardsOf(movInst(1, 3))));  // writes %r1 again
    sb.release(producer);
    EXPECT_TRUE(sb.canIssue(hazardsOf(movInst(1, 3))));
}

TEST(Scoreboard, IndependentRegistersDoNotBlock)
{
    Scoreboard sb;
    sb.reserve(movInst(1, 2));
    EXPECT_TRUE(sb.canIssue(hazardsOf(movInst(3, 4))));
}

TEST(Scoreboard, PredicatePendingBlocksGuardedInstruction)
{
    Scoreboard sb;
    Instruction setp = setpInst(1, 2);
    sb.reserve(setp);
    Instruction guarded = movInst(3, 4);
    guarded.guard = 1;
    EXPECT_FALSE(sb.canIssue(hazardsOf(guarded)));
    sb.release(setp);
    EXPECT_TRUE(sb.canIssue(hazardsOf(guarded)));
}

TEST(Scoreboard, PredicateSourceBlocksSelp)
{
    Scoreboard sb;
    Instruction setp = setpInst(0, 1);
    sb.reserve(setp);
    Instruction selp;
    selp.op = Opcode::Selp;
    selp.dst = Operand::reg(2);
    selp.src[0] = Operand::reg(3);
    selp.src[1] = Operand::reg(4);
    selp.src[2] = Operand::pred(0);
    EXPECT_FALSE(sb.canIssue(hazardsOf(selp)));
    sb.release(setp);
    EXPECT_TRUE(sb.canIssue(hazardsOf(selp)));
}

TEST(Scoreboard, OutstandingCountsReservations)
{
    Scoreboard sb;
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
    Scoreboard sb;
    Instruction st;
    st.op = Opcode::St;
    st.src[0] = Operand::reg(1);
    st.src[1] = Operand::reg(2);
    sb.reserve(st);
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, PanicsOnDoubleReserveAndIdleRelease)
{
    Scoreboard sb;
    Instruction a = movInst(1, 2);
    sb.reserve(a);
    EXPECT_THROW(sb.reserve(a), PanicError);
    sb.release(a);
    EXPECT_THROW(sb.release(a), PanicError);
}

TEST(Scoreboard, PanicsOnDoubleReserveAndIdleReleaseInBothRanges)
{
    Scoreboard sb;
    for (const Instruction &a :
         {movInst(5, 2), movInst(63, 2), setpInst(1, 2), setpInst(63, 2)}) {
        sb.reserve(a);
        EXPECT_THROW(sb.reserve(a), PanicError) << toString(a);
        sb.release(a);
        EXPECT_THROW(sb.release(a), PanicError) << toString(a);
    }
    EXPECT_TRUE(sb.idle());
}

TEST(Scoreboard, ImmediateAndSpecialOperandsNeverBlock)
{
    Scoreboard sb;
    sb.reserve(movInst(1, 2));
    Instruction i;
    i.op = Opcode::Mov;
    i.dst = Operand::reg(3);
    i.src[0] = Operand::special(SpecialReg::TidX);
    EXPECT_TRUE(sb.canIssue(hazardsOf(i)));
    i.src[0] = Operand::immediate(5);
    EXPECT_TRUE(sb.canIssue(hazardsOf(i)));
}

}  // namespace
}  // namespace bowsim
