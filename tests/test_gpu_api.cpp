#include <gtest/gtest.h>

#include "src/common/log.hpp"
#include "src/harness/sweep.hpp"
#include "src/isa/assembler.hpp"
#include "src/sim/gpu.hpp"

namespace bowsim {
namespace {

GpuConfig
smallConfig()
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    return cfg;
}

Program
trivialKernel()
{
    return assemble(R"(
.kernel trivial
.param 1
  ld.param.u64 %r1, [0];
  st.global.u64 [%r1], 1;
  exit;
)");
}

TEST(GpuApi, MemcpyRoundTrip)
{
    Gpu gpu(smallConfig());
    Addr a = gpu.malloc(256);
    std::vector<std::uint8_t> in(256);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i);
    gpu.memcpyToDevice(a, in.data(), in.size());
    std::vector<std::uint8_t> out(256);
    gpu.memcpyFromDevice(out.data(), a, out.size());
    EXPECT_EQ(in, out);
}

TEST(GpuApi, LaunchRejectsMissingParams)
{
    Gpu gpu(smallConfig());
    Program p = trivialKernel();
    EXPECT_THROW(gpu.launch(p, Dim3{1, 1, 1}, Dim3{32, 1, 1}, {}),
                 FatalError);
}

TEST(GpuApi, LaunchRejectsEmptyGeometry)
{
    Gpu gpu(smallConfig());
    Program p = trivialKernel();
    Addr a = gpu.malloc(8);
    EXPECT_THROW(gpu.launch(p, Dim3{0, 1, 1}, Dim3{32, 1, 1},
                            {static_cast<Word>(a)}),
                 FatalError);
    EXPECT_THROW(gpu.launch(p, Dim3{1, 1, 1}, Dim3{0, 1, 1},
                            {static_cast<Word>(a)}),
                 FatalError);
}

TEST(GpuApi, LaunchRejectsBlockExceedingSmLimits)
{
    Gpu gpu(smallConfig());
    Program p = trivialKernel();
    Addr a = gpu.malloc(8);
    // 1536 threads/SM max on Fermi: a 2048-thread CTA cannot fit.
    EXPECT_THROW(gpu.launch(p, Dim3{1, 1, 1}, Dim3{2048, 1, 1},
                            {static_cast<Word>(a)}),
                 FatalError);
}

TEST(GpuApi, LaunchRejectsSharedMemoryOverflow)
{
    Gpu gpu(smallConfig());
    Program p = trivialKernel();
    p.sharedBytes = 1024 * 1024;  // exceeds the 48 KiB per-SM budget
    Addr a = gpu.malloc(8);
    EXPECT_THROW(gpu.launch(p, Dim3{1, 1, 1}, Dim3{32, 1, 1},
                            {static_cast<Word>(a)}),
                 FatalError);
}

TEST(GpuApi, LaunchRejectsSchedulerUnitGeometry)
{
    // An SM needs a scheduler unit, and a unit at most 64 warp slots
    // (its arbitration bitmask): 4096 threads are 128 slots in one unit.
    GpuConfig no_units = smallConfig();
    no_units.numSchedulersPerCore = 0;
    GpuConfig wide_unit = smallConfig();
    wide_unit.numSchedulersPerCore = 1;
    wide_unit.maxThreadsPerCore = 4096;
    for (const GpuConfig &cfg : {no_units, wide_unit}) {
        Gpu gpu(cfg);
        Addr a = gpu.malloc(8);
        EXPECT_THROW(gpu.launch(trivialKernel(), Dim3{1, 1, 1},
                                Dim3{32, 1, 1}, {static_cast<Word>(a)}),
                     FatalError);
    }
}

TEST(GpuApi, LaunchRejectsAMalformedProgram)
{
    // Each kernel stores a marker before reaching its fault, so a launch
    // that ran even one instruction leaves the marker in memory.
    const char *const kStoreThen = R"(
.kernel gate
.param 1
  ld.param.u64 %r1, [0];
  st.global.u64 [%r1], 1;
  mov %r2, %tid;
  setp.eq.s64 %p1, %r2, 0;
  @%p1 bra DONE;
  add %r5, %r2, 1;
DONE:
  exit;
)";
    struct Case {
        const char *what;
        Program prog;
        const char *issue;
    };
    std::vector<Case> cases;
    cases.push_back({"numRegs below a register it uses", assemble(kStoreThen),
                     "pc 5: dst: register %r5 out of bounds"});
    cases.back().prog.numRegs = 5;
    cases.push_back({"branch target past the end", assemble(kStoreThen),
                     "pc 4: branch target out of range"});
    cases.back().prog.code[4].target = 7;
    cases.push_back({"no final exit", assemble(R"(
.kernel gate
.param 1
  ld.param.u64 %r1, [0];
  st.global.u64 [%r1], 1;
  mov %r2, 1;
  exit;
)"),
                     "pc 2: control can fall off the end"});
    cases.back().prog.code.pop_back();
    cases.push_back({"%r64", assemble(R"(
.kernel gate
.param 1
  ld.param.u64 %r1, [0];
  st.global.u64 [%r1], 1;
  mov %r64, 1;
  exit;
)"),
                     "pc 2: dst: register %r64 out of bounds"});

    for (ExecMode mode : {ExecMode::Cycle, ExecMode::Functional}) {
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(toString(mode)) + ", " + c.what);
            GpuConfig cfg = smallConfig();
            cfg.execMode = mode;
            Gpu gpu(cfg);
            Addr a = gpu.malloc(8);
            std::string message;
            try {
                gpu.launch(c.prog, Dim3{2, 1, 1}, Dim3{64, 1, 1},
                           {static_cast<Word>(a)});
                ADD_FAILURE() << "the launch ran";
            } catch (const SimError &e) {
                ADD_FAILURE() << "SimError: " << e.what();
            } catch (const FatalError &e) {
                message = e.what();
            }
            EXPECT_NE(message.find("program 'gate' failed verification"),
                      std::string::npos)
                << message;
            EXPECT_NE(message.find(c.issue), std::string::npos) << message;
            EXPECT_EQ(gpu.mem().read(a, 8), 0) << "an instruction ran";
            EXPECT_FALSE(gpu.lastAbort().valid);
        }
    }
}

TEST(GpuApi, MemoryPersistsAcrossLaunches)
{
    Gpu gpu(smallConfig());
    Addr a = gpu.malloc(8);
    Program inc = assemble(R"(
.kernel inc
.param 1
  ld.param.u64 %r1, [0];
  atom.global.add.b64 %r2, [%r1], 1;
  exit;
)");
    for (int i = 0; i < 3; ++i)
        gpu.launch(inc, Dim3{1, 1, 1}, Dim3{1, 1, 1},
                   {static_cast<Word>(a)});
    Word v = 0;
    gpu.memcpyFromDevice(&v, a, 8);
    EXPECT_EQ(v, 3);
}

TEST(GpuApi, WatchdogCatchesSimtInducedDeadlock)
{
    // The canonical SIMT-induced deadlock (Section IV of the paper):
    //   while (atomicCAS(mutex, 0, 1) != 0) ;
    //   ...critical section...
    //   atomicExch(mutex, 0);
    // With two lanes contending for the same lock, the winner parks at
    // the reconvergence point while the loser spins forever waiting for
    // a release that can never execute.
    GpuConfig cfg = smallConfig();
    cfg.watchdogCycles = 100000;
    Gpu gpu(cfg);
    Addr mutex = gpu.malloc(8);
    Program deadlock = assemble(R"(
.kernel simt_deadlock
.param 1
  ld.param.u64 %r1, [0];
TRY:
  atom.global.cas.b64 %r2, [%r1], 0, 1;
  setp.ne.s64 %p1, %r2, 0;
  @%p1 bra TRY;
  atom.global.exch.b64 %r3, [%r1], 0;
  exit;
)");
    EXPECT_THROW(gpu.launch(deadlock, Dim3{1, 1, 1}, Dim3{32, 1, 1},
                            {static_cast<Word>(mutex)}),
                 FatalError);
}

TEST(GpuApi, AbortRecordNamesItsCause)
{
    // The cause is set where the engine throws, not read back from the
    // message: a fault in a kernel whose name, and so whose message,
    // contains "watchdog" is still a fault, in both modes.
    const Program probe = assemble(R"(
.kernel watchdog_probe
  st.shared.u64 [1048576], 1;
  exit;
)");
    for (ExecMode mode : {ExecMode::Cycle, ExecMode::Functional}) {
        GpuConfig cfg = smallConfig();
        cfg.execMode = mode;
        Gpu gpu(cfg);
        try {
            gpu.launch(probe, Dim3{1, 1, 1}, Dim3{32, 1, 1}, {});
            ADD_FAILURE() << "no fault in " << toString(mode);
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("watchdog"),
                      std::string::npos);
        }
        ASSERT_TRUE(gpu.lastAbort().valid) << toString(mode);
        EXPECT_EQ(gpu.lastAbort().cause, AbortCause::Fault)
            << toString(mode);
    }

    // The cycle watchdog names itself.
    GpuConfig cfg = smallConfig();
    cfg.watchdogCycles = 1000;
    Gpu gpu(cfg);
    const Program spin = assemble(R"(
.kernel spin
LOOP:
  bra LOOP;
)");
    EXPECT_THROW(gpu.launch(spin, Dim3{1, 1, 1}, Dim3{32, 1, 1}, {}),
                 SimError);
    ASSERT_TRUE(gpu.lastAbort().valid);
    EXPECT_EQ(gpu.lastAbort().cause, AbortCause::Watchdog);
}

TEST(GpuApi, MidCycleFaultAbortRecordMatchesNoSkip)
{
    // One CTA per SM (48 KiB of shared memory each). CTAs 0, 2 and 3
    // poll a dependent chain of volatile loads, so their SMs sleep on
    // memory replies; CTA 1 counts through 300 dependent adds, then
    // faults on an out-of-bounds shared store inside SM 1's cycle. At
    // the fault SM 0 has run the cycle and SMs 2 and 3 have not, so the
    // abort record must catch the sleeping SMs up to exactly that split.
    Program p = assemble(R"(
.kernel mid_cycle_fault
.shared 49152
.param 1
  ld.param.u64 %r1, [0];
  mov %r5, %ctaid;
  setp.eq.s64 %p1, %r5, 1;
  @%p1 bra WORK;
POLL:
  ld.volatile.global.u64 %r2, [%r1];
  add %r1, %r1, %r2;
  setp.eq.s64 %p2, %r2, 0;
  @%p2 bra POLL;
  exit;
WORK:
  mov %r3, 0;
LOOP:
  add %r3, %r3, 1;
  setp.lt.s64 %p3, %r3, 300;
  @%p3 bra LOOP;
  st.shared.u64 [1048576], %r3;
  exit;
)");
    LaunchAbort abort[2];
    for (bool skip : {true, false}) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 4;
        cfg.collectStallBreakdown = true;
        cfg.idleSkip = skip;
        Gpu gpu(cfg);
        Addr flag = gpu.malloc(8);
        EXPECT_THROW(gpu.launch(p, Dim3{4, 1, 1}, Dim3{32, 1, 1},
                                {static_cast<Word>(flag)}),
                     SimError);
        abort[skip ? 0 : 1] = gpu.lastAbort();
    }
    const LaunchAbort &on = abort[0];
    const LaunchAbort &off = abort[1];
    ASSERT_TRUE(on.valid);
    ASSERT_TRUE(off.valid);
    EXPECT_GT(off.atCycle, 1000u);
    // The oracle's split: SMs 0 and 1 counted cycle atCycle + 1 (SM 1
    // faulted inside it), SMs 2 and 3 stopped at atCycle.
    EXPECT_EQ(off.stats.smCycles, 4 * off.atCycle + 2);
    EXPECT_EQ(on.atCycle, off.atCycle);
    EXPECT_EQ(on.lastIssueCycle, off.lastIssueCycle);
    EXPECT_EQ(harness::statsToJson(on.stats).dump(),
              harness::statsToJson(off.stats).dump());
}

TEST(GpuApi, SingleLaneTightSpinIsFine)
{
    // The same while(CAS) loop is safe when only one thread runs it.
    Gpu gpu(smallConfig());
    Addr mutex = gpu.malloc(8);
    Program p = assemble(R"(
.kernel single
.param 1
  ld.param.u64 %r1, [0];
TRY:
  atom.global.cas.b64 %r2, [%r1], 0, 1;
  setp.ne.s64 %p1, %r2, 0;
  @%p1 bra TRY;
  atom.global.exch.b64 %r3, [%r1], 0;
  exit;
)");
    KernelStats s = gpu.launch(p, Dim3{1, 1, 1}, Dim3{1, 1, 1},
                               {static_cast<Word>(mutex)});
    EXPECT_GT(s.cycles, 0u);
}

TEST(GpuApi, MoreCtasThanResidencyDrainsInWaves)
{
    Gpu gpu(smallConfig());
    Addr counter = gpu.malloc(8);
    Program inc = assemble(R"(
.kernel inc
.param 1
  ld.param.u64 %r1, [0];
  atom.global.add.b64 %r2, [%r1], 1;
  exit;
)");
    // 64 CTAs on 2 SMs with an 8-CTA residency cap: several waves.
    gpu.launch(inc, Dim3{64, 1, 1}, Dim3{64, 1, 1},
               {static_cast<Word>(counter)});
    Word v = 0;
    gpu.memcpyFromDevice(&v, counter, 8);
    EXPECT_EQ(v, 64 * 64);
}

TEST(GpuApi, PascalConfigHasTableIiGeometry)
{
    GpuConfig cfg = makeGtx1080TiConfig();
    EXPECT_EQ(cfg.numCores, 28u);
    EXPECT_EQ(cfg.maxThreadsPerCore, 2048u);
    EXPECT_EQ(cfg.numSchedulersPerCore, 4u);
    EXPECT_EQ(cfg.numRegsPerCore, 65536u);
    GpuConfig fermi = makeGtx480Config();
    EXPECT_EQ(fermi.numCores, 15u);
    EXPECT_EQ(fermi.maxWarpsPerCore(), 48u);
}

TEST(GpuApi, RegisterPressureLimitsResidency)
{
    // 32768 regs/SM and a 256-thread CTA using 64 regs/thread leaves
    // room for exactly 2 resident CTAs; the kernel must still finish.
    GpuConfig cfg = smallConfig();
    Gpu gpu(cfg);
    Program p = assemble(R"(
.kernel hungry
.reg 64
.param 1
  ld.param.u64 %r1, [0];
  atom.global.add.b64 %r63, [%r1], 1;
  exit;
)");
    Addr counter = gpu.malloc(8);
    gpu.launch(p, Dim3{8, 1, 1}, Dim3{256, 1, 1},
               {static_cast<Word>(counter)});
    Word v = 0;
    gpu.memcpyFromDevice(&v, counter, 8);
    EXPECT_EQ(v, 8 * 256);
}

}  // namespace
}  // namespace bowsim
