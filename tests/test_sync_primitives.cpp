#include <gtest/gtest.h>

#include "src/common/log.hpp"
#include "src/cpuref/sync_cpu.hpp"
#include "src/sync/primitives.hpp"
#include "src/sync/sync_kernels.hpp"

namespace bowsim {
namespace {

using sync::Primitive;
using sync::SyncGeometry;

GpuConfig
testConfig(SchedulerKind sched = SchedulerKind::LRR, bool bows = false)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    cfg.scheduler = sched;
    cfg.bows.enabled = bows;
    cfg.watchdogCycles = 2'000'000;
    return cfg;
}

SyncGeometry
smallGeometry()
{
    SyncGeometry g;
    g.ctas = 2;
    g.threadsPerCta = 64;
    g.iters = 4;
    return g;
}

TEST(SyncPrimitives, NamesRoundTrip)
{
    for (Primitive p : sync::allPrimitives()) {
        Primitive back;
        ASSERT_TRUE(sync::parsePrimitive(sync::toString(p), &back));
        EXPECT_EQ(back, p);
    }
    Primitive out;
    EXPECT_FALSE(sync::parsePrimitive("mutex", &out));
    EXPECT_FALSE(sync::parsePrimitive("", &out));
}

TEST(SyncPrimitives, KernelNameEncodesGeometry)
{
    SyncGeometry g = smallGeometry();
    EXPECT_EQ(sync::primitiveKernelName(Primitive::TasLock, g),
              "sync_tas_2x64");
    EXPECT_EQ(sync::syncBenchmarkName(Primitive::TicketLock, g),
              "SYNC_ticket_2x64");
}

TEST(SyncPrimitives, GeneratorRejectsBadGeometry)
{
    SyncGeometry g = smallGeometry();
    g.threadsPerCta = 48;  // not a multiple of the warp size
    EXPECT_THROW(sync::primitiveSource(Primitive::TasLock, g),
                 FatalError);
    g = smallGeometry();
    g.ctas = 0;
    EXPECT_THROW(sync::primitiveSource(Primitive::TasLock, g),
                 FatalError);
    g = smallGeometry();
    g.iters = 0;
    EXPECT_THROW(sync::primitiveSource(Primitive::GlobalBarrier, g),
                 FatalError);
}

/** Every primitive validates against its cpuref at a small geometry. */
TEST(SyncPrimitives, AllPrimitivesValidateUnderLrr)
{
    for (Primitive p : sync::allPrimitives()) {
        Gpu gpu(testConfig());
        auto h = sync::makeSyncKernel(p, smallGeometry());
        KernelStats s;
        ASSERT_NO_THROW(s = h->run(gpu)) << sync::toString(p);
        EXPECT_GT(s.warpInstructions, 0u) << sync::toString(p);
    }
}

TEST(SyncPrimitives, AllPrimitivesValidateUnderGtoWithBows)
{
    for (Primitive p : sync::allPrimitives()) {
        Gpu gpu(testConfig(SchedulerKind::GTO, true));
        auto h = sync::makeSyncKernel(p, smallGeometry());
        ASSERT_NO_THROW(h->run(gpu)) << sync::toString(p);
    }
}

/** TAS acquires are CAS with an acquire annotation, so the outcome
 *  counters must see exactly one success per acquisition and, under
 *  contention, some inter-warp failures. */
TEST(SyncPrimitives, TasLockOutcomeCounters)
{
    Gpu gpu(testConfig());
    SyncGeometry g = smallGeometry();
    auto h = sync::makeSyncKernel(Primitive::TasLock, g);
    KernelStats s = h->run(gpu);
    EXPECT_EQ(s.outcomes.lockSuccess, g.totalAcquisitions());
    EXPECT_GT(s.outcomes.interWarpFail, 0u);
    // Lanes 1..31 exit before the lock: no intra-warp contention.
    EXPECT_EQ(s.outcomes.intraWarpFail, 0u);
}

/** The ticket and array locks spin on a wait-annotated flag load. */
TEST(SyncPrimitives, FifoLocksCountWaitExits)
{
    for (Primitive p : {Primitive::TicketLock, Primitive::ArrayLock}) {
        Gpu gpu(testConfig());
        SyncGeometry g = smallGeometry();
        auto h = sync::makeSyncKernel(p, g);
        KernelStats s = h->run(gpu);
        EXPECT_EQ(s.outcomes.waitExitSuccess, g.totalAcquisitions())
            << sync::toString(p);
    }
}

TEST(SyncPrimitives, GroundTruthSibsAnnotated)
{
    for (Primitive p : sync::allPrimitives()) {
        auto h = sync::makeSyncKernel(p, smallGeometry());
        EXPECT_FALSE(h->groundTruthSibs().empty()) << sync::toString(p);
    }
}

TEST(SyncCpuRef, LockReferenceShape)
{
    SyncGeometry g = smallGeometry();
    const cpuref::LockRef ref =
        cpuref::lockReference(Primitive::TicketLock, g);
    EXPECT_EQ(ref.counter, g.totalAcquisitions());
    EXPECT_EQ(ref.slots.size(), g.totalWarps());
    for (Word w : ref.slots)
        EXPECT_EQ(w, g.iters);
    EXPECT_EQ(ref.nextTicket, g.totalAcquisitions());
    EXPECT_EQ(ref.nowServing, g.totalAcquisitions());
    EXPECT_THROW(cpuref::lockReference(Primitive::GlobalBarrier, g),
                 FatalError);
}

TEST(SyncCpuRef, ArrayLockFlagsEndAtNextSlot)
{
    SyncGeometry g = smallGeometry();
    const cpuref::LockRef ref =
        cpuref::lockReference(Primitive::ArrayLock, g);
    ASSERT_EQ(ref.flags.size(), g.totalWarps());
    // After all acquisitions, only the next-to-serve slot is open.
    const std::size_t open = g.totalAcquisitions() % g.totalWarps();
    for (std::size_t i = 0; i < ref.flags.size(); ++i)
        EXPECT_EQ(ref.flags[i], i == open ? 1u : 0u) << i;
}

TEST(SyncCpuRef, BarrierReference)
{
    SyncGeometry g = smallGeometry();
    const cpuref::BarrierRef ref = cpuref::barrierReference(g);
    EXPECT_EQ(ref.count, 0u);
    EXPECT_EQ(ref.release, g.iters);
    EXPECT_EQ(ref.data.size(), g.ctas);
    for (Word w : ref.data)
        EXPECT_EQ(w, g.iters);
}

}  // namespace
}  // namespace bowsim
