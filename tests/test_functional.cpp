#include <gtest/gtest.h>

#include "src/common/log.hpp"
#include "src/isa/assembler.hpp"
#include "src/kernels/registry.hpp"
#include "src/sim/functional.hpp"
#include "src/sim/gpu.hpp"
#include "src/sim/sm_core.hpp"

/**
 * Fast-functional execution mode (docs/PERF.md, "Execution modes"):
 * determinism of the fixed atomic application order, the bounded-
 * fairness slice rotation, and the exec-mode names the bench flags
 * and artifacts use.
 */

namespace bowsim {
namespace {

GpuConfig
funcConfig(ExecMode mode = ExecMode::Functional)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    cfg.execMode = mode;
    return cfg;
}

/** Same spin-lock kernel as test_sim_sync.cpp: every thread increments
 *  a counter inside a global critical section. */
constexpr const char *kSpinCounter = R"(
.kernel spin_counter
.param 2
  ld.param.u64 %r1, [0];         // mutex
  ld.param.u64 %r2, [8];         // counter
  mov %r20, 0;
.annot sync_begin
LOOP:
  .annot acquire
  atom.global.cas.b64 %r3, [%r1], 0, 1;
  setp.ne.s64 %p1, %r3, 0;
  @%p1 bra SKIP;
.annot sync_end
  ld.global.u64 %r4, [%r2];
  add %r4, %r4, 1;
  st.global.u64 [%r2], %r4;
  mov %r20, 1;
  membar;
.annot sync_begin
  atom.global.exch.b64 %r5, [%r1], 0;
SKIP:
  setp.eq.s64 %p2, %r20, 0;
  .annot spin
  @%p2 bra LOOP;
.annot sync_end
  exit;
)";

TEST(Functional, SpinLockCriticalSectionIsExact)
{
    // The bounded-fairness rotation must let the lock holder finish its
    // critical section while other warps spin: the kernel terminates
    // and every one of the 512 increments lands.
    Gpu gpu(funcConfig());
    Addr mutex = gpu.malloc(8);
    Addr counter = gpu.malloc(8);
    Program prog = assemble(kSpinCounter);
    KernelStats s = gpu.launch(prog, Dim3{4, 1, 1}, Dim3{128, 1, 1},
                               {static_cast<Word>(mutex),
                                static_cast<Word>(counter)});
    Word v = 0;
    gpu.memcpyFromDevice(&v, counter, 8);
    EXPECT_EQ(v, 4u * 128u);
    EXPECT_EQ(s.outcomes.lockSuccess, 4u * 128u);
    EXPECT_EQ(s.cycles, 0u) << "functional mode reports no timing";
    EXPECT_GT(s.warpInstructions, 0u);
}

TEST(Functional, AtomicOrderingIsDeterministic)
{
    // Atomics apply in the fixed SM-id/CTA-slot/warp-slot rotation
    // order, so two functional runs of a contended kernel are
    // bit-identical — memory image and outcome counters alike.
    auto once = [] {
        Gpu gpu(funcConfig());
        KernelStats s = makeBenchmark("ATM", 0.25)->run(gpu);
        return std::make_pair(gpu.mem().digest(), s);
    };
    auto [dig_a, s_a] = once();
    auto [dig_b, s_b] = once();
    EXPECT_EQ(dig_a, dig_b);
    EXPECT_EQ(s_a.warpInstructions, s_b.warpInstructions);
    EXPECT_EQ(s_a.outcomes.lockSuccess, s_b.outcomes.lockSuccess);
    EXPECT_EQ(s_a.outcomes.total(), s_b.outcomes.total());
}

TEST(Functional, MatchesCycleModeDigest)
{
    // ATM is schedule-invariant (test_differential.cpp), so functional
    // mode must converge to the cycle-mode memory image exactly. This
    // is the fast anchor; FunctionalEquivalence covers the full suite.
    GpuConfig cyc = funcConfig(ExecMode::Cycle);
    Gpu gpu_c(cyc);
    KernelStats sc = makeBenchmark("ATM", 0.25)->run(gpu_c);

    Gpu gpu_f(funcConfig());
    KernelStats sf = makeBenchmark("ATM", 0.25)->run(gpu_f);

    EXPECT_EQ(gpu_f.mem().digest(), gpu_c.mem().digest());
    // Lock-attempt counts legitimately differ (ATM's two-lock protocol
    // releases and retries lock 1 when lock 2 is taken, so even
    // successful acquisitions depend on interleaving); both runs must
    // still see real contention.
    EXPECT_GT(sf.outcomes.lockSuccess, 0u);
    EXPECT_GT(sc.outcomes.lockSuccess, 0u);
}

TEST(Functional, RunForStopsWithinOneSlice)
{
    Gpu gpu(funcConfig());
    Addr mutex = gpu.malloc(8);
    Addr counter = gpu.malloc(8);
    Program prog = assemble(kSpinCounter);

    LockTracker locks;
    LaunchState launch;
    launch.tracker = &locks;
    launch.prog = &prog;
    launch.grid = Dim3{4, 1, 1};
    launch.ctaEnd = 4;
    launch.block = Dim3{128, 1, 1};
    launch.params = {static_cast<Word>(mutex), static_cast<Word>(counter)};
    launch.mem = &gpu.mem();
    launch.stats.kernel = prog.name;
    launch.buildPcFlags();

    FunctionalExecutor fx(gpu.config(), launch);
    fx.runFor(1000);
    // The odometer overshoots by at most the final warp's slice, which
    // bounds each device's turn in a multi-device functional launch
    // (runFor(kDeviceSlice) in GpuSystem::launchFunctional).
    EXPECT_GE(fx.instructionsExecuted(), 1000u);
    EXPECT_LE(fx.instructionsExecuted(),
              1000u + FunctionalExecutor::kSliceInstructions);
}

TEST(Functional, EnginesRunOnlyOnVerifiedPcTables)
{
    // buildPcFlags verifies before it builds: a %r64 program, past the
    // scoreboard's masks, fails on a hand-made LaunchState as it does in
    // Gpu::launch, and gets no tables.
    Program wide = assemble(".kernel wide\n  mov %r64, 1;\n  exit;\n");
    LaunchState bad;
    bad.prog = &wide;
    EXPECT_THROW(bad.buildPcFlags(), FatalError);
    EXPECT_TRUE(bad.pcFlags.empty());

    // Neither engine starts on a LaunchState without the tables.
    const GpuConfig cfg = funcConfig(ExecMode::Cycle);
    Gpu gpu(cfg);
    Program prog = assemble(kSpinCounter);
    LockTracker locks;
    MemorySystem memsys(cfg);
    LaunchState launch;
    launch.prog = &prog;
    launch.tracker = &locks;
    launch.mem = &gpu.mem();
    launch.memsys = &memsys;
    EXPECT_THROW(FunctionalExecutor(cfg, launch), PanicError);
    EXPECT_THROW(SmCore(0, cfg, launch), PanicError);
    launch.buildPcFlags();
    EXPECT_EQ(launch.pcFlags.size(), prog.length());
    EXPECT_NO_THROW(FunctionalExecutor(cfg, launch));
    EXPECT_NO_THROW(SmCore(0, cfg, launch));
}

TEST(ExecModeNames, RoundTripAndRejectUnknown)
{
    // The bench --exec-mode flag and every artifact's config.exec_mode
    // go through these two functions; a name parseExecMode rejects is
    // the usage error that makes --exec-mode=<name> exit 2.
    for (ExecMode mode : {ExecMode::Cycle, ExecMode::Functional}) {
        ExecMode parsed = mode == ExecMode::Cycle ? ExecMode::Functional
                                                  : ExecMode::Cycle;
        ASSERT_TRUE(parseExecMode(toString(mode), &parsed))
            << toString(mode);
        EXPECT_EQ(parsed, mode);
    }
    EXPECT_STREQ(toString(ExecMode::Cycle), "cycle");
    EXPECT_STREQ(toString(ExecMode::Functional), "functional");

    for (const char *bad : {"sampled", "", "Cycle"}) {
        ExecMode out = ExecMode::Cycle;
        EXPECT_FALSE(parseExecMode(bad, &out)) << "'" << bad << "'";
    }
}

}  // namespace
}  // namespace bowsim
