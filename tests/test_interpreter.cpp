#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "src/arch/warp.hpp"
#include "src/mem/lock_tracker.hpp"
#include "src/mem/memory_space.hpp"
#include "src/sim/interpreter.hpp"
#include "src/sim/sm_core.hpp"

/**
 * The row-wise interpreter (src/sim/interpreter.hpp) one instruction at
 * a time: every ALU opcode and every setp comparison against values
 * written out here, under a full, a one-lane, a {0, 31} and a contiguous
 * partial exec mask. Lanes outside exec keep their registers and
 * predicates. Lanes inside the exec span but outside exec hold
 * INT64_MIN and the divisors 0 and -1: the row ops compute them on
 * those stale values, so each op must be total (the ASan+UBSan build
 * runs this suite).
 */

namespace bowsim {
namespace {

constexpr Word kMin = std::numeric_limits<Word>::min();
constexpr Word kMax = std::numeric_limits<Word>::max();

/** Full, one lane, lanes {0, 31}, and lanes 8..15. */
constexpr LaneMask kMasks[] = {kFullMask, LaneMask{1} << 5, 0x80000001u,
                               0x0000ff00u};

constexpr unsigned kSmId = 7;

bool
inMask(LaneMask m, unsigned lane)
{
    return (m >> lane) & 1;
}

/** One warp (warp 2 of CTA 3 in a 4 x 128 grid) and a one-instruction
 *  program, run directly through executeLanes. */
struct Rig {
    Program prog;
    LockTracker locks;
    MemorySpace mem;
    LaunchState launch;
    std::vector<std::uint8_t> shared;
    Warp w{0, 3, 2, 0, 8, 4, kFullMask};

    Rig()
    {
        prog.name = "rows";
        launch.prog = &prog;
        launch.grid = Dim3{4, 1, 1};
        launch.block = Dim3{128, 1, 1};
        launch.tracker = &locks;
        launch.mem = &mem;
        launch.pcFlags.assign(1, 0);
    }

    Word *reg(int r) { return w.regs().row(r); }

    void
    run(const Instruction &inst, LaneMask exec, Cycle clock = 0)
    {
        LaneAddrs addrs{};
        executeLanes(launch, kSmId, shared, w, inst, exec, clock, addrs);
    }
};

Instruction
makeInst(Opcode op, Operand dst, Operand a, Operand b = Operand::none(),
         Operand c = Operand::none())
{
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.src[0] = a;
    inst.src[1] = b;
    inst.src[2] = c;
    return inst;
}

// ------------------------------------------------------------ ALU rows --

struct AluCase {
    Word a, b, c, expected;
};

struct AluSpec {
    Opcode op;
    std::vector<AluCase> cases;
};

void
PrintTo(const AluSpec &s, std::ostream *os)
{
    *os << toString(s.op);
}

const std::vector<AluSpec> kAluSpecs = {
    {Opcode::Mov, {{0, 0, 0, 0}, {-1, 0, 0, -1}, {kMin, 0, 0, kMin},
                   {kMax, 0, 0, kMax}}},
    {Opcode::Add, {{0, 0, 0, 0}, {-1, 1, 0, 0}, {kMax, 1, 0, kMin},
                   {kMin, -1, 0, kMax}, {-1, -1, 0, -2},
                   {kMin, kMin, 0, 0}}},
    {Opcode::Sub, {{0, 1, 0, -1}, {kMin, 1, 0, kMax}, {kMax, -1, 0, kMin},
                   {0, kMin, 0, kMin}, {-1, -1, 0, 0}}},
    {Opcode::Mul, {{-1, -1, 0, 1}, {kMin, -1, 0, kMin}, {kMax, 2, 0, -2},
                   {0, kMin, 0, 0}, {kMax, kMax, 0, 1}}},
    {Opcode::Mad, {{2, 3, 4, 10}, {kMax, 2, 2, 0}, {kMin, -1, -1, kMax},
                   {-1, -1, kMax, kMin}, {0, kMin, -1, -1}}},
    {Opcode::Div, {{7, 2, 0, 3}, {-7, 2, 0, -3}, {7, 0, 0, 0},
                   {kMin, -1, 0, kMin}, {5, -1, 0, -5}, {kMin, 0, 0, 0},
                   {0, -1, 0, 0}, {kMax, kMin, 0, 0}, {kMin, kMax, 0, -1},
                   {-1, kMin, 0, 0}}},
    {Opcode::Rem, {{7, 2, 0, 1}, {-7, 2, 0, -1}, {7, 0, 0, 0},
                   {kMin, -1, 0, 0}, {5, -1, 0, 0}, {kMin, kMax, 0, -1},
                   {kMax, kMin, 0, kMax}, {kMin, 0, 0, 0}}},
    {Opcode::Min, {{0, -1, 0, -1}, {kMin, kMax, 0, kMin}, {kMax, 0, 0, 0},
                   {-1, -1, 0, -1}}},
    {Opcode::Max, {{0, -1, 0, 0}, {kMin, kMax, 0, kMax}, {kMin, -1, 0, -1},
                   {kMax, kMax, 0, kMax}}},
    {Opcode::And, {{-1, kMin, 0, kMin}, {kMax, kMin, 0, 0},
                   {0xf0, 0x3c, 0, 0x30}, {0, -1, 0, 0}}},
    {Opcode::Or, {{kMax, kMin, 0, -1}, {0, 0, 0, 0}, {0xf0, 0x0f, 0, 0xff},
                  {kMin, 0, 0, kMin}}},
    {Opcode::Xor, {{-1, kMax, 0, kMin}, {-1, -1, 0, 0},
                   {0xf0, 0x3c, 0, 0xcc}, {0, kMin, 0, kMin}}},
    {Opcode::Not, {{0, 0, 0, -1}, {-1, 0, 0, 0}, {kMin, 0, 0, kMax},
                   {kMax, 0, 0, kMin}}},
    // Shift counts are taken mod 64; shr is logical.
    {Opcode::Shl, {{1, 63, 0, kMin}, {1, 64, 0, 1}, {1, 65, 0, 2},
                   {-1, 63, 0, kMin}, {kMax, 1, 0, -2}, {3, 0, 0, 3},
                   {1, -1, 0, kMin}}},
    {Opcode::Shr, {{kMin, 63, 0, 1}, {kMin, 64, 0, kMin},
                   {kMin, 65, 0, Word{1} << 62}, {-1, 63, 0, 1},
                   {-1, 1, 0, kMax}, {-1, 64, 0, -1}}},
};

class AluRows : public ::testing::TestWithParam<AluSpec> {};

TEST_P(AluRows, MatchesWrittenOutValues)
{
    const AluSpec &spec = GetParam();
    ASSERT_LE(spec.cases.size(), kWarpSize);
    for (LaneMask exec : kMasks) {
        // alias: the destination is src[0]'s register, so each exec lane
        // must read its old value before the write.
        for (bool alias : {false, true}) {
            Rig rig;
            const int dst = alias ? 1 : 0;
            std::vector<Word> want(kWarpSize);
            unsigned k = 0;
            for (unsigned l = 0; l < kWarpSize; ++l) {
                rig.reg(0)[l] = 1000 + l;
                if (inMask(exec, l)) {
                    const AluCase &c = spec.cases[k++ % spec.cases.size()];
                    rig.reg(1)[l] = c.a;
                    rig.reg(2)[l] = c.b;
                    rig.reg(3)[l] = c.c;
                    want[l] = c.expected;
                } else {
                    rig.reg(1)[l] = kMin;
                    rig.reg(2)[l] = l % 2 ? -1 : 0;
                    rig.reg(3)[l] = kMin;
                    want[l] = rig.reg(dst)[l];
                }
            }
            rig.run(makeInst(spec.op, Operand::reg(dst), Operand::reg(1),
                             Operand::reg(2), Operand::reg(3)),
                    exec);
            for (unsigned l = 0; l < kWarpSize; ++l) {
                EXPECT_EQ(rig.reg(dst)[l], want[l])
                    << toString(spec.op) << " exec=0x" << std::hex << exec
                    << std::dec << " lane " << l
                    << (alias ? " (dst aliases src a)" : "");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Interpreter, AluRows, ::testing::ValuesIn(kAluSpecs),
    [](const ::testing::TestParamInfo<AluSpec> &info) {
        return std::string(toString(info.param.op));
    });

// ----------------------------------------------------------- setp rows --

constexpr Word kCmpPairs[][2] = {
    {0, 0},       {-1, 0},      {0, -1},     {kMin, kMax}, {kMax, kMin},
    {kMin, kMin}, {kMax, kMax}, {-1, -1},    {kMin, 0},
};

struct CmpSpec {
    CmpOp op;
    /** a op b for each of kCmpPairs. */
    std::vector<bool> expected;
};

void
PrintTo(const CmpSpec &s, std::ostream *os)
{
    *os << toString(s.op);
}

const std::vector<CmpSpec> kCmpSpecs = {
    {CmpOp::Eq, {1, 0, 0, 0, 0, 1, 1, 1, 0}},
    {CmpOp::Ne, {0, 1, 1, 1, 1, 0, 0, 0, 1}},
    {CmpOp::Lt, {0, 1, 0, 1, 0, 0, 0, 0, 1}},
    {CmpOp::Le, {1, 1, 0, 1, 0, 1, 1, 1, 1}},
    {CmpOp::Gt, {0, 0, 1, 0, 1, 0, 0, 0, 0}},
    {CmpOp::Ge, {1, 0, 1, 0, 1, 1, 1, 1, 0}},
};

class SetpRows : public ::testing::TestWithParam<CmpSpec> {};

TEST_P(SetpRows, MatchesWrittenOutValuesAndCountsWaitChecks)
{
    const CmpSpec &spec = GetParam();
    constexpr unsigned kPairs = std::size(kCmpPairs);
    ASSERT_EQ(spec.expected.size(), kPairs);
    constexpr LaneMask kOldPred = 0xa5a5a5a5u;
    for (LaneMask exec : kMasks) {
        for (bool wait_check : {false, true}) {
            Rig rig;
            if (wait_check)
                rig.launch.pcFlags[0] = LaunchState::kPcWaitCheck;
            rig.w.regs().predRow(1) = kOldPred;
            LaneMask want_true = 0;
            unsigned k = 0;
            for (unsigned l = 0; l < kWarpSize; ++l) {
                if (inMask(exec, l)) {
                    const unsigned i = k++ % kPairs;
                    rig.reg(1)[l] = kCmpPairs[i][0];
                    rig.reg(2)[l] = kCmpPairs[i][1];
                    if (spec.expected[i])
                        want_true |= LaneMask{1} << l;
                } else {
                    // Stale lanes compare both ways under every op.
                    rig.reg(1)[l] = kMin;
                    rig.reg(2)[l] = l % 2 ? kMin : kMax;
                }
            }
            Instruction inst = makeInst(Opcode::Setp, Operand::pred(1),
                                        Operand::reg(1), Operand::reg(2));
            inst.cmp = spec.op;
            rig.run(inst, exec);
            EXPECT_EQ(rig.w.regs().predBits(1),
                      (kOldPred & ~exec) | want_true)
                << toString(spec.op) << " exec=0x" << std::hex << exec;
            const SyncOutcomes &o = rig.launch.stats.outcomes;
            const unsigned succ = wait_check ? std::popcount(want_true) : 0;
            const unsigned fail =
                wait_check ? std::popcount(exec & ~want_true) : 0;
            EXPECT_EQ(o.waitExitSuccess, succ)
                << toString(spec.op) << " exec=0x" << std::hex << exec;
            EXPECT_EQ(o.waitExitFail, fail)
                << toString(spec.op) << " exec=0x" << std::hex << exec;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Interpreter, SetpRows, ::testing::ValuesIn(kCmpSpecs),
    [](const ::testing::TestParamInfo<CmpSpec> &info) {
        return std::string(toString(info.param.op));
    });

// ------------------------------------------------ operand kinds, selp --

TEST(InterpreterRows, SourceKindsResolveToLaneRows)
{
    const LaneMask exec = 0x0000ff00u;
    auto check = [&](const Operand &src, auto want) {
        Rig rig;
        rig.w.regs().predRow(2) = 0x0000aa00u;
        for (unsigned l = 0; l < kWarpSize; ++l)
            rig.reg(1)[l] = 10 * l;
        for (unsigned l = 0; l < kWarpSize; ++l)
            rig.reg(0)[l] = -5;
        // add %r0, %r1, src: a register row plus the resolved source.
        rig.run(makeInst(Opcode::Add, Operand::reg(0), Operand::reg(1), src),
                exec);
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const Word expect =
                inMask(exec, l) ? 10 * static_cast<Word>(l) + want(l) : -5;
            EXPECT_EQ(rig.reg(0)[l], expect) << "lane " << l;
            if (inMask(exec, l)) {
                EXPECT_EQ(readOperand(rig.launch, kSmId, rig.w, src, l),
                          want(l))
                    << "lane " << l;
            }
        }
    };
    auto constant = [](Word v) { return [v](unsigned) { return v; }; };
    check(Operand::immediate(kMin), constant(kMin));
    check(Operand::none(), constant(0));
    check(Operand::pred(2),
          [](unsigned l) { return Word((0xaa00u >> l) & 1); });
    check(Operand::special(SpecialReg::TidX),
          [](unsigned l) { return Word(2 * kWarpSize + l); });
    check(Operand::special(SpecialReg::LaneId),
          [](unsigned l) { return Word(l); });
    check(Operand::special(SpecialReg::CtaIdX), constant(3));
    check(Operand::special(SpecialReg::NTidX), constant(128));
    check(Operand::special(SpecialReg::NCtaIdX), constant(4));
    check(Operand::special(SpecialReg::WarpId), constant(2));
    check(Operand::special(SpecialReg::SmId), constant(kSmId));
}

TEST(InterpreterRows, SelpAndClockWriteOnlyExecLanes)
{
    for (LaneMask exec : kMasks) {
        Rig rig;
        rig.w.regs().predRow(3) = 0x0f0f0f0fu;
        for (unsigned l = 0; l < kWarpSize; ++l) {
            rig.reg(0)[l] = -1;
            rig.reg(1)[l] = 100 + l;
            rig.reg(2)[l] = 200 + l;
            rig.reg(4)[l] = -1;
        }
        rig.run(makeInst(Opcode::Selp, Operand::reg(0), Operand::reg(1),
                         Operand::reg(2), Operand::pred(3)),
                exec);
        rig.run(makeInst(Opcode::Clock, Operand::reg(4), Operand::none()),
                exec, 123456);
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const bool on = inMask(exec, l);
            const Word sel = inMask(0x0f0f0f0fu, l) ? 100 + l : 200 + l;
            EXPECT_EQ(rig.reg(0)[l], on ? sel : -1) << "lane " << l;
            EXPECT_EQ(rig.reg(4)[l], on ? 123456 : -1) << "lane " << l;
        }
    }
}

}  // namespace
}  // namespace bowsim
