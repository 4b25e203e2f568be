#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/kernels/registry.hpp"
#include "src/sim/gpu.hpp"

/**
 * Multi-device differential suite (labeled `slow`): the device/system
 * split (docs/PERF.md, "Device sharding") is a timing-only refactor
 * over one shared functional memory, so it inherits every determinism
 * contract the single-device simulator carries:
 *
 *  - Degenerate equivalence: numDevices = 1 must be byte-identical to
 *    a config that never mentions devices — no shards, no link
 *    traffic, same memory image and cycle count.
 *  - Knob invariance: at numDevices = 2, idle-skip remains a pure
 *    execution knob — memory, cycles, outcomes, link packets, and
 *    every per-device shard must be bit-identical.
 *  - Aggregation: the system-wide KernelStats is exactly the fold of
 *    its per-device shards (additive counters sum; every shard reports
 *    the system horizon as its cycle count; shards never nest).
 *  - Schedule invariance across device counts: kernels whose result is
 *    interleaving-independent must land on the same memory image at 1
 *    and 2 devices, in cycle and functional mode alike — home routing
 *    moves latencies, never values.
 */

namespace bowsim {
namespace {

constexpr double kScale = 0.25;

/** Kernels with interleaving-independent final memory (the subset of
 *  test_differential.cpp's list exercised here; HT/TB/DS commit pointer
 *  links in acquisition order, so only knob-invariance applies). */
const std::vector<std::string> kInvariantKernels = {"ATM", "VEC", "ST"};

GpuConfig
deviceConfig(unsigned num_devices)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 4;
    cfg.scheduler = SchedulerKind::GTO;
    cfg.bows.enabled = true;
    cfg.numDevices = num_devices;
    return cfg;
}

struct RunResult {
    std::uint64_t digest;
    KernelStats stats;
};

RunResult
runKernel(const std::string &name, const GpuConfig &cfg)
{
    Gpu gpu(cfg);
    RunResult r;
    r.stats = makeBenchmark(name, kScale)->run(gpu);
    r.digest = gpu.mem().digest();
    return r;
}

TEST(DeviceEquivalence, SingleDeviceLaunchHasNoMultiDeviceArtifacts)
{
    // numDevices = 1 degenerates to the pre-split simulator: the
    // explicit value must match a config that never touches the device
    // fields, and neither run may grow shards or link traffic.
    GpuConfig implicit_cfg = makeGtx480Config();
    implicit_cfg.numCores = 4;
    implicit_cfg.scheduler = SchedulerKind::GTO;
    implicit_cfg.bows.enabled = true;
    RunResult implicit_run = runKernel("HT", implicit_cfg);

    RunResult explicit_run = runKernel("HT", deviceConfig(1));
    EXPECT_EQ(explicit_run.digest, implicit_run.digest);
    EXPECT_EQ(explicit_run.stats.cycles, implicit_run.stats.cycles);
    EXPECT_TRUE(explicit_run.stats.perDevice.empty());
    EXPECT_EQ(explicit_run.stats.mem.linkPackets, 0u);
}

class DeviceKnobEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(DeviceKnobEquivalence, ExecutionKnobsInvisibleAtTwoDevices)
{
    const std::string &name = GetParam();
    GpuConfig cfg = deviceConfig(2);
    cfg.idleSkip = true;
    const RunResult ref = runKernel(name, cfg);
    cfg.idleSkip = false;
    const RunResult r = runKernel(name, cfg);
    ASSERT_EQ(ref.stats.perDevice.size(), 2u) << name;
    ASSERT_EQ(r.stats.perDevice.size(), 2u) << name;

    const std::string label = name + " skip=off vs skip=on";
    ASSERT_EQ(r.digest, ref.digest) << label << ": memory image diverged";
    ASSERT_EQ(r.stats.cycles, ref.stats.cycles) << label;
    EXPECT_EQ(r.stats.warpInstructions, ref.stats.warpInstructions) << label;
    EXPECT_EQ(r.stats.outcomes.total(), ref.stats.outcomes.total()) << label;
    EXPECT_EQ(r.stats.mem.l2Accesses, ref.stats.mem.l2Accesses) << label;
    EXPECT_EQ(r.stats.mem.linkPackets, ref.stats.mem.linkPackets) << label;
    for (std::size_t d = 0; d < 2; ++d) {
        const KernelStats &a = r.stats.perDevice[d];
        const KernelStats &b = ref.stats.perDevice[d];
        EXPECT_EQ(a.cycles, b.cycles) << label << " device " << d;
        EXPECT_EQ(a.warpInstructions, b.warpInstructions)
            << label << " device " << d;
        EXPECT_EQ(a.mem.l2Accesses, b.mem.l2Accesses)
            << label << " device " << d;
        EXPECT_EQ(a.mem.linkPackets, b.mem.linkPackets)
            << label << " device " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, DeviceKnobEquivalence,
                         ::testing::Values("HT", "ATM", "VEC"),
                         [](const auto &info) { return info.param; });

TEST(DeviceEquivalence, ShardsAggregateToSystemTotals)
{
    RunResult r = runKernel("HT", deviceConfig(2));
    ASSERT_EQ(r.stats.perDevice.size(), 2u);
    std::uint64_t warp_insns = 0;
    std::uint64_t l2 = 0;
    std::uint64_t link = 0;
    for (const KernelStats &s : r.stats.perDevice) {
        EXPECT_TRUE(s.perDevice.empty()) << "shards must not nest";
        // Every shard is cut at the system horizon, not a per-device
        // local clock — the devices share one lockstep cycle loop.
        EXPECT_EQ(s.cycles, r.stats.cycles);
        warp_insns += s.warpInstructions;
        l2 += s.mem.l2Accesses;
        link += s.mem.linkPackets;
    }
    EXPECT_EQ(warp_insns, r.stats.warpInstructions);
    EXPECT_EQ(l2, r.stats.mem.l2Accesses);
    EXPECT_EQ(link, r.stats.mem.linkPackets);
    // Line-interleaved homes guarantee remote traffic on any real
    // working set; a zero here means the link path was bypassed.
    EXPECT_GT(r.stats.mem.linkPackets, 0u);
}

TEST(DeviceEquivalence, ScheduleInvariantKernelsMatchAcrossDeviceCounts)
{
    // Home routing is timing-only over one shared memory: for kernels
    // whose result is interleaving-independent, the device count (and
    // functional mode at either count) must not change the final
    // memory image.
    for (const std::string &name : kInvariantKernels) {
        RunResult one = runKernel(name, deviceConfig(1));
        RunResult two = runKernel(name, deviceConfig(2));
        ASSERT_EQ(two.digest, one.digest)
            << name << ": memory diverged between 1 and 2 devices";

        GpuConfig fcfg = deviceConfig(2);
        fcfg.execMode = ExecMode::Functional;
        RunResult func = runKernel(name, fcfg);
        EXPECT_EQ(func.stats.cycles, 0u);
        ASSERT_EQ(func.digest, one.digest)
            << name
            << ": functional memory diverged from cycle mode at 2 devices";
    }
}

TEST(DeviceEquivalence, RepeatedMultiDeviceRunsAreBitIdentical)
{
    const GpuConfig cfg = deviceConfig(2);
    RunResult a = runKernel("HT", cfg);
    RunResult b = runKernel("HT", cfg);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.mem.linkPackets, b.stats.mem.linkPackets);
}

}  // namespace
}  // namespace bowsim
