#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/log.hpp"
#include "src/harness/fingerprint.hpp"
#include "src/isa/assembler.hpp"
#include "src/kernels/registry.hpp"
#include "src/sync/sync_kernels.hpp"
#include "tests/program_fields.hpp"

namespace bowsim {
namespace {

TEST(Assembler, ParsesAluOps)
{
    Program p = assemble(R"(
.kernel alu
  add %r1, %r2, %r3;
  sub %r4, %r1, 5;
  mul %r5, %r4, %r4;
  mad %r6, %r1, %r2, %r3;
  div %r7, %r6, 2;
  rem %r8, %r7, 3;
  min %r9, %r1, %r2;
  max %r10, %r1, %r2;
  and %r11, %r1, 0xff;
  or %r12, %r1, 1;
  xor %r13, %r1, %r2;
  shl %r14, %r1, 3;
  shr %r15, %r1, 3;
  not %r16, %r1;
  exit;
)");
    ASSERT_EQ(p.code.size(), 15u);
    EXPECT_EQ(p.code[0].op, Opcode::Add);
    EXPECT_EQ(p.code[1].src[1].imm, 5);
    EXPECT_EQ(p.code[3].op, Opcode::Mad);
    EXPECT_EQ(p.code[8].src[1].imm, 0xff);
    EXPECT_EQ(p.code[13].op, Opcode::Not);
    // Register count inferred from the highest index used.
    EXPECT_EQ(p.numRegs, 17u);
}

TEST(Assembler, ParsesGuardsAndPredicates)
{
    Program p = assemble(R"(
.kernel guards
  setp.eq.s64 %p1, %r1, 0;
  @%p1 mov %r2, 1;
  @!%p1 mov %r2, 2;
  selp %r3, %r1, %r2, %p1;
  exit;
)");
    EXPECT_EQ(p.code[0].op, Opcode::Setp);
    EXPECT_EQ(p.code[0].cmp, CmpOp::Eq);
    EXPECT_EQ(p.code[1].guard, 1);
    EXPECT_FALSE(p.code[1].guardNegate);
    EXPECT_TRUE(p.code[2].guardNegate);
    EXPECT_EQ(p.code[3].op, Opcode::Selp);
    EXPECT_EQ(p.code[3].src[2].kind, Operand::Kind::Pred);
}

TEST(Assembler, ParsesMemoryForms)
{
    Program p = assemble(R"(
.kernel mem
.shared 64
  ld.param.u64 %r1, [0];
  ld.global.u64 %r2, [%r1];
  ld.global.u32 %r3, [%r1+8];
  ld.volatile.global.u64 %r4, [%r1-8];
  st.global.u64 [%r1], %r2;
  st.shared.u64 [%r3], %r2;
  ld.shared.u64 %r5, [%r3];
  atom.global.cas.b64 %r6, [%r1], 0, 1;
  atom.global.exch.b64 %r7, [%r1], 0;
  atom.global.add.b64 %r8, [%r1], 5;
  exit;
)");
    EXPECT_EQ(p.code[0].space, MemSpace::Param);
    EXPECT_EQ(p.code[1].space, MemSpace::Global);
    EXPECT_EQ(p.code[2].size, 4u);
    EXPECT_EQ(p.code[2].memOffset, 8);
    EXPECT_TRUE(p.code[3].isVolatile);
    EXPECT_EQ(p.code[3].memOffset, -8);
    EXPECT_EQ(p.code[5].space, MemSpace::Shared);
    EXPECT_EQ(p.code[7].atom, AtomOp::Cas);
    EXPECT_TRUE(p.code[7].src[2].valid());
    EXPECT_EQ(p.code[8].atom, AtomOp::Exch);
    EXPECT_EQ(p.code[9].atom, AtomOp::Add);
}

TEST(Assembler, ResolvesLabelsForwardAndBackward)
{
    Program p = assemble(R"(
.kernel branches
TOP:
  setp.eq.s64 %p1, %r1, 0;
  @%p1 bra DONE;
  sub %r1, %r1, 1;
  bra.uni TOP;
DONE:
  exit;
)");
    EXPECT_EQ(p.code[1].target, 4u);  // DONE
    EXPECT_EQ(p.code[3].target, 0u);  // TOP
    EXPECT_TRUE(p.code[3].uniform);
}

TEST(Assembler, ParsesSpecialRegisters)
{
    Program p = assemble(R"(
.kernel specials
  mov %r0, %tid;
  mov %r1, %ctaid.x;
  mov %r2, %ntid;
  mov %r3, %nctaid;
  mov %r4, %laneid;
  mov %r5, %warpid;
  mov %r6, %smid;
  exit;
)");
    EXPECT_EQ(static_cast<SpecialReg>(p.code[0].src[0].index),
              SpecialReg::TidX);
    EXPECT_EQ(static_cast<SpecialReg>(p.code[1].src[0].index),
              SpecialReg::CtaIdX);
    EXPECT_EQ(static_cast<SpecialReg>(p.code[6].src[0].index),
              SpecialReg::SmId);
}

TEST(Assembler, AnnotationsTagTheNextInstruction)
{
    Program p = assemble(R"(
.kernel annots
LOOP:
  .annot acquire
  atom.global.cas.b64 %r1, [%r2], 0, 1;
  .annot wait
  setp.eq.s64 %p1, %r1, 0;
  .annot spin
  @!%p1 bra LOOP;
  exit;
)");
    EXPECT_TRUE(p.sync.lockAcquires.count(0));
    EXPECT_TRUE(p.sync.waitChecks.count(1));
    EXPECT_TRUE(p.sync.spinBranches.count(2));
}

TEST(Assembler, SyncRegionCoversRange)
{
    Program p = assemble(R"(
.kernel region
  mov %r1, 0;
.annot sync_begin
  add %r1, %r1, 1;
  add %r1, %r1, 2;
.annot sync_end
  add %r1, %r1, 3;
  exit;
)");
    EXPECT_FALSE(p.sync.isSyncPc(0));
    EXPECT_TRUE(p.sync.isSyncPc(1));
    EXPECT_TRUE(p.sync.isSyncPc(2));
    EXPECT_FALSE(p.sync.isSyncPc(3));
}

TEST(Assembler, AppendsExitWhenKernelFallsOffTheEnd)
{
    Program p = assemble(R"(
.kernel noexit
  mov %r1, 1;
)");
    ASSERT_EQ(p.code.size(), 2u);
    EXPECT_EQ(p.code.back().op, Opcode::Exit);
}

TEST(Assembler, DirectivesSetResources)
{
    Program p = assemble(R"(
.kernel resources
.reg 40
.pred 6
.shared 2048
.param 3
  mov %r1, 0;
  exit;
)");
    EXPECT_EQ(p.name, "resources");
    EXPECT_EQ(p.numRegs, 40u);
    EXPECT_EQ(p.numPreds, 6u);
    EXPECT_EQ(p.sharedBytes, 2048u);
    EXPECT_EQ(p.numParams, 3u);
}

TEST(Assembler, CommentsAndBlankLinesIgnored)
{
    Program p = assemble(R"(
// leading comment
.kernel comments

  mov %r1, 1;   // trailing comment
  exit;
)");
    EXPECT_EQ(p.code.size(), 2u);
}

TEST(Assembler, ErrorOnUnknownOpcode)
{
    EXPECT_THROW(assemble(".kernel k\n  frobnicate %r1;\n"), FatalError);
}

TEST(Assembler, ErrorOnUndefinedLabel)
{
    EXPECT_THROW(assemble(".kernel k\n  bra NOWHERE;\n"), FatalError);
}

TEST(Assembler, ErrorOnDuplicateLabel)
{
    EXPECT_THROW(assemble(".kernel k\nL: mov %r1, 0;\nL: exit;\n"),
                 FatalError);
}

TEST(Assembler, ErrorOnRegisterOverflowAgainstDeclaration)
{
    EXPECT_THROW(assemble(".kernel k\n.reg 4\n  mov %r9, 0;\n  exit;\n"),
                 FatalError);
}

TEST(Assembler, ErrorOnBadImmediate)
{
    EXPECT_THROW(assemble(".kernel k\n  mov %r1, zzz;\n  exit;\n"),
                 FatalError);
}

TEST(Assembler, ErrorOnMisplacedAnnotation)
{
    EXPECT_THROW(assemble(".kernel k\n  .annot spin\n  mov %r1, 0;\n"),
                 FatalError);
    EXPECT_THROW(
        assemble(".kernel k\n  .annot acquire\n  mov %r1, 0;\n"),
        FatalError);
    EXPECT_THROW(assemble(".kernel k\n  .annot wait\n  mov %r1, 0;\n"),
                 FatalError);
}

TEST(Assembler, ErrorOnUnterminatedSyncRegion)
{
    EXPECT_THROW(
        assemble(".kernel k\n.annot sync_begin\n  mov %r1, 0;\n  exit;\n"),
        FatalError);
}

TEST(Assembler, ErrorOnEmptyKernel)
{
    EXPECT_THROW(assemble(".kernel k\n"), FatalError);
}

TEST(Assembler, ErrorOnStoreToParamSpace)
{
    EXPECT_THROW(
        assemble(".kernel k\n  st.param.u64 [0], %r1;\n  exit;\n"),
        FatalError);
}

TEST(Assembler, NegativeAndHexImmediates)
{
    Program p = assemble(R"(
.kernel imm
  mov %r1, -42;
  mov %r2, 0xdead;
  exit;
)");
    EXPECT_EQ(p.code[0].src[0].imm, -42);
    EXPECT_EQ(p.code[1].src[0].imm, 0xdead);
}

TEST(Assembler, InstructionToStringRoundtrips)
{
    Program p = assemble(R"(
.kernel tostr
  @%p1 setp.lt.s64 %p2, %r1, 4;
  exit;
)");
    std::string s = toString(p.code[0]);
    EXPECT_NE(s.find("setp.lt"), std::string::npos);
    EXPECT_NE(s.find("@%p1"), std::string::npos);
}

/**
 * The 21 programs the repo assembles: the 14 registry kernels', HT's
 * software-delay variant and the six sync primitives'.
 */
class RepoPrograms {
  public:
    RepoPrograms()
    {
        for (const auto *names : {&syncKernelNames(), &syncFreeKernelNames()})
            for (const std::string &name : *names)
                harnesses_.push_back(makeBenchmark(name, 0.1));
        harnesses_.push_back(makeBenchmark("HT", 0.1, {{"delayFactor", 4}}));
        for (sync::Primitive p : sync::allPrimitives())
            harnesses_.push_back(sync::makeSyncKernel(p, sync::SyncGeometry{}));
        for (const auto &h : harnesses_)
            for (const Program *p : h->programs())
                programs_.push_back(p);
    }

    const std::vector<const Program *> &all() const { return programs_; }

  private:
    std::vector<std::unique_ptr<KernelHarness>> harnesses_;
    std::vector<const Program *> programs_;
};

TEST(Assembler, ProgramsPinned)
{
    // Every field of every program the repo assembles, source lines
    // included: an assembler change that moves any of them fails here.
    RepoPrograms repo;
    ASSERT_EQ(repo.all().size(), 21u);
    harness::FingerprintHasher hasher;
    for (const Program *p : repo.all())
        for (const std::string &field : test::programFields(*p, true))
            hasher.add("field", field);
    EXPECT_EQ(hasher.hex(), "eac85544fd01c42702cc6137c9ac6e38"
                            "c30639ca4582d537464e9b4755500869");
}

TEST(Disassembler, RoundTripsEveryProgram)
{
    RepoPrograms repo;
    ASSERT_EQ(repo.all().size(), 21u);
    for (const Program *p : repo.all()) {
        const std::string text = disassemble(*p);
        EXPECT_EQ(test::firstDifference(*p, assemble(text)), "")
            << p->name << ":\n" << text;
    }
}

TEST(Disassembler, EmitsReadableText)
{
    Program p = assemble(R"(
.kernel pretty
.param 1
  ld.param.u64 %r1, [0];
LOOP:
  atom.global.cas.b64 %r2, [%r1], 0, 1;
  setp.ne.s64 %p1, %r2, 0;
  @%p1 bra LOOP;
  exit;
)");
    std::string text = disassemble(p);
    EXPECT_NE(text.find("atom.global.cas.b64"), std::string::npos);
    EXPECT_NE(text.find("@%p1 bra"), std::string::npos);
    EXPECT_NE(text.find(".kernel pretty"), std::string::npos);
}

}  // namespace
}  // namespace bowsim
