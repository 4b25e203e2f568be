#include <gtest/gtest.h>

#include "src/common/log.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/verifier.hpp"
#include "src/kernels/registry.hpp"

namespace bowsim {
namespace {

TEST(Verifier, AssembledProgramsAreValid)
{
    Program p = assemble(R"(
.kernel valid
.param 1
  ld.param.u64 %r1, [0];
LOOP:
  atom.global.cas.b64 %r2, [%r1], 0, 1;
  setp.ne.s64 %p1, %r2, 0;
  .annot spin
  @%p1 bra LOOP;
  exit;
)");
    EXPECT_TRUE(verify(p).empty());
    EXPECT_NO_THROW(verifyOrDie(p));
}

TEST(Verifier, EveryBenchmarkKernelIsValid)
{
    for (const std::string &name : syncKernelNames()) {
        auto h = makeBenchmark(name, 0.1);
        for (const Program *p : h->programs())
            EXPECT_TRUE(verify(*p).empty()) << name;
    }
    for (const std::string &name : syncFreeKernelNames()) {
        auto h = makeBenchmark(name, 0.1);
        for (const Program *p : h->programs())
            EXPECT_TRUE(verify(*p).empty()) << name;
    }
}

TEST(Verifier, CatchesRegisterOutOfBounds)
{
    Program p = assemble(".kernel k\n  mov %r1, %r2;\n  exit;\n");
    p.numRegs = 2;  // %r2 now out of bounds
    auto issues = verify(p);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("out of bounds"), std::string::npos);
    EXPECT_THROW(verifyOrDie(p), FatalError);
}

TEST(Verifier, CatchesBranchTargetOutOfRange)
{
    Program p = assemble(".kernel k\nL:\n  bra.uni L;\n");
    p.code[0].target = 99;
    auto issues = verify(p);
    ASSERT_FALSE(issues.empty());
}

TEST(Verifier, CatchesFallOffTheEnd)
{
    Program p = assemble(".kernel k\n  mov %r1, 0;\n  exit;\n");
    p.code.pop_back();  // drop the exit
    auto issues = verify(p);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("fall off"), std::string::npos);
}

TEST(Verifier, CatchesForwardSpinAnnotation)
{
    Program p = assemble(R"(
.kernel k
  setp.eq.s64 %p1, %r1, 0;
  @%p1 bra DONE;
  mov %r1, 1;
DONE:
  exit;
)");
    p.sync.spinBranches.insert(1);  // forward branch marked as spin
    auto issues = verify(p);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("not backward"), std::string::npos);
}

TEST(Verifier, CatchesWrongOperandShapes)
{
    Program p = assemble(".kernel k\n  add %r1, %r2, %r3;\n  exit;\n");
    p.code[0].src[1] = Operand::none();  // add now has one source
    auto issues = verify(p);
    ASSERT_FALSE(issues.empty());

    // One source, but in src[1]: the engines would read an empty src[0].
    Program gap = assemble(".kernel k\n  mov %r1, %r2;\n  exit;\n");
    gap.code[0].src[1] = gap.code[0].src[0];
    gap.code[0].src[0] = Operand::none();
    issues = verify(gap);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].message, "wrong source operands");
}

TEST(Verifier, CatchesBadMemorySize)
{
    Program p =
        assemble(".kernel k\n  ld.global.u64 %r1, [%r2];\n  exit;\n");
    p.code[0].size = 3;
    auto issues = verify(p);
    ASSERT_FALSE(issues.empty());
}

TEST(Verifier, CatchesMoreThan64Registers)
{
    Program p = assemble(".kernel k\n  mov %r63, 1;\n  exit;\n");
    EXPECT_EQ(p.numRegs, kMaxRegs);
    EXPECT_TRUE(verify(p).empty());
    p.numRegs = kMaxRegs + 1;
    auto issues = verify(p);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].pc, 0u);
    EXPECT_EQ(issues[0].message, ".reg 65 is over the limit of 64 registers");

    // Naming %r64 declares 65 registers, and the operand is past the
    // scoreboard's masks.
    Program wide = assemble(".kernel k\n  mov %r64, 1;\n  exit;\n");
    issues = verify(wide);
    ASSERT_EQ(issues.size(), 2u);
    EXPECT_EQ(issues[1].pc, 0u);
    EXPECT_EQ(issues[1].message, "dst: register %r64 out of bounds");
}

TEST(Verifier, CatchesMoreThan64Predicates)
{
    Program p = assemble(
        ".kernel k\n  setp.eq.s64 %p63, %r1, 0;\n  @%p63 exit;\n  exit;\n");
    EXPECT_EQ(p.numPreds, kMaxPreds);
    EXPECT_TRUE(verify(p).empty());
    p.numPreds = kMaxPreds + 1;
    auto issues = verify(p);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].message,
              ".pred 65 is over the limit of 64 predicates");
    p.numPreds = 8;  // %p63 is now outside the file, as dst and guard
    issues = verify(p);
    ASSERT_EQ(issues.size(), 2u);
    EXPECT_EQ(issues[0].message, "dst: predicate %p63 out of bounds");
    EXPECT_EQ(issues[1].pc, 1u);
    EXPECT_EQ(issues[1].message, "guard predicate out of bounds");
}

TEST(Verifier, CatchesReconvergencePcOutOfRange)
{
    Program p = assemble(R"(
.kernel k
  setp.eq.s64 %p1, %r1, 0;
  @%p1 bra SKIP;
  mov %r1, 1;
SKIP:
  mov %r2, 2;
  exit;
)");
    ASSERT_EQ(p.code[1].reconvergence, 3u);
    p.code[1].reconvergence = kInvalidPc;  // merge at exit: allowed
    EXPECT_TRUE(verify(p).empty());
    p.code[1].reconvergence = p.length();
    auto issues = verify(p);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].pc, 1u);
    EXPECT_EQ(issues[0].message, "reconvergence PC out of range");
}

TEST(Verifier, CatchesSyncRegionPastTheEnd)
{
    Program p = assemble(".kernel k\n  mov %r1, 0;\n  exit;\n");
    p.annotateSyncRange(1, 2);
    auto issues = verify(p);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].pc, 2u);
    EXPECT_EQ(issues[0].message, "sync-region annotation past the end");
}

}  // namespace
}  // namespace bowsim
