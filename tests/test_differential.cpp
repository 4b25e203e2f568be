#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/harness/sweep.hpp"
#include "src/kernels/registry.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sim/gpu.hpp"
#include "src/trace/ring_recorder.hpp"

/**
 * Differential tests (labeled `slow`): run the same kernel under many
 * configurations and require bit-identical final device memory.
 *
 * Two properties are enforced:
 *  - Schedule invariance: for kernels whose result is independent of
 *    interleaving, every scheduler × BOWS combination must converge to
 *    the same memory image. This catches lost updates, broken atomics,
 *    and lock protocols that only work under one issue order.
 *  - Observer effect: attaching a trace sink (and the stall-breakdown
 *    accounting it enables) must not change simulation results for ANY
 *    kernel, including the order-dependent ones.
 *  - Skip equivalence: the idle-cycle fast-forward (docs/PERF.md) must
 *    be invisible — every kernel, scheduler, and BOWS mode must produce
 *    identical memory and identical statsToJson output, stall breakdown
 *    included, with idleSkip on and off.
 */

namespace bowsim {
namespace {

constexpr double kScale = 0.25;

std::vector<std::string>
allKernelNames()
{
    std::vector<std::string> names = syncKernelNames();
    for (const std::string &n : syncFreeKernelNames())
        names.push_back(n);
    return names;
}

/**
 * Kernels whose final memory is independent of warp interleaving: the
 * remaining sync kernels (TB tree build, DS allocation, HT chaining)
 * commit pointer links in acquisition order, so their memory image is
 * schedule-dependent by design and only the observer-effect property
 * applies to them.
 */
const std::vector<std::string> kInvariantKernels = {
    "ST", "ATM", "TSP", "NW1", "NW2",
    "VEC", "KM", "MS", "HL", "RED", "STEN",
};

GpuConfig
diffConfig(SchedulerKind sched, bool bows)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 4;
    cfg.scheduler = sched;
    cfg.bows.enabled = bows;
    return cfg;
}

struct RunResult {
    std::uint64_t digest;
    KernelStats stats;
};

RunResult
runKernel(const std::string &name, const GpuConfig &cfg,
          trace::TraceSink *sink = nullptr)
{
    Gpu gpu(cfg);
    if (sink)
        gpu.setTraceSink(sink);
    RunResult r;
    r.stats = makeBenchmark(name, kScale)->run(gpu);
    r.digest = gpu.mem().digest();
    return r;
}

class ScheduleInvariance : public ::testing::TestWithParam<std::string> {};

TEST_P(ScheduleInvariance, FinalMemoryIdenticalAcrossSchedulers)
{
    const std::string &name = GetParam();
    const SchedulerKind scheds[] = {SchedulerKind::LRR, SchedulerKind::GTO,
                                    SchedulerKind::CAWA};
    bool have_ref = false;
    std::uint64_t ref = 0;
    for (SchedulerKind sched : scheds) {
        for (bool bows : {false, true}) {
            RunResult r = runKernel(name, diffConfig(sched, bows));
            if (!have_ref) {
                ref = r.digest;
                have_ref = true;
                continue;
            }
            ASSERT_EQ(r.digest, ref)
                << name << " memory diverged under " << toString(sched)
                << (bows ? "+BOWS" : "");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ScheduleInvariance,
                         ::testing::ValuesIn(kInvariantKernels),
                         [](const auto &info) { return info.param; });

class ObserverEffect : public ::testing::TestWithParam<std::string> {};

TEST_P(ObserverEffect, TracedRunIdenticalToUntraced)
{
    const std::string &name = GetParam();
    GpuConfig cfg = diffConfig(SchedulerKind::GTO, /*bows=*/true);
    RunResult plain = runKernel(name, cfg);

    trace::RingRecorder rec;
    RunResult traced = runKernel(name, cfg, &rec);
    EXPECT_GT(rec.total(), 0u) << "sink was not attached";

    ASSERT_EQ(traced.digest, plain.digest)
        << name << ": tracing changed the final memory image";
    EXPECT_EQ(traced.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(traced.stats.warpInstructions, plain.stats.warpInstructions);
    EXPECT_EQ(traced.stats.outcomes.total(), plain.stats.outcomes.total());

    // collectStallBreakdown without a sink takes the same accounting
    // paths; it must be equally invisible.
    GpuConfig stall_cfg = cfg;
    stall_cfg.collectStallBreakdown = true;
    RunResult counted = runKernel(name, stall_cfg);
    ASSERT_EQ(counted.digest, plain.digest)
        << name << ": stall accounting changed the final memory image";
    EXPECT_EQ(counted.stats.cycles, plain.stats.cycles);
    EXPECT_TRUE(counted.stats.hasStallBreakdown());
}

INSTANTIATE_TEST_SUITE_P(Kernels, ObserverEffect,
                         ::testing::ValuesIn(allKernelNames()),
                         [](const auto &info) { return info.param; });

class SkipEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SkipEquivalence, FastForwardIsInvisible)
{
    const std::string &name = GetParam();
    const SchedulerKind scheds[] = {SchedulerKind::LRR, SchedulerKind::GTO,
                                    SchedulerKind::CAWA};
    for (SchedulerKind sched : scheds) {
        for (bool bows : {false, true}) {
            GpuConfig cfg = diffConfig(sched, bows);
            // Stall breakdown on in BOTH runs: the per-cause counters
            // are bulk-updated across skipped gaps and must match the
            // per-cycle classification exactly.
            cfg.collectStallBreakdown = true;
            cfg.idleSkip = true;
            RunResult on = runKernel(name, cfg);
            cfg.idleSkip = false;
            RunResult off = runKernel(name, cfg);

            const std::string label =
                name + " under " + std::string(toString(sched)) +
                (bows ? "+BOWS" : "");
            ASSERT_EQ(on.digest, off.digest)
                << label << ": skip changed the final memory image";
            ASSERT_TRUE(on.stats.hasStallBreakdown()) << label;
            // Every reported field, per-SM rows included: the stall
            // table, unit issues and peak residency are what a sleeping
            // SM could shift while the totals still agree.
            EXPECT_EQ(harness::statsToJson(on.stats).dump(),
                      harness::statsToJson(off.stats).dump())
                << label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, SkipEquivalence,
                         ::testing::ValuesIn(allKernelNames()),
                         [](const auto &info) { return info.param; });

class FunctionalEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(FunctionalEquivalence, FunctionalModeMatchesCycleMode)
{
    // Functional mode's correctness anchor (docs/PERF.md, "Execution
    // modes"): the ISA-semantics-only interpreter must land on the same
    // final memory image as full cycle-accurate simulation for every
    // schedule-invariant kernel, under every scheduler × BOWS cycle
    // configuration. Order-dependent kernels (TB, DS, HT) are covered
    // by the validation pass below instead — their memory image differs
    // even between cycle-mode schedulers.
    const std::string &name = GetParam();

    GpuConfig fcfg = diffConfig(SchedulerKind::GTO, /*bows=*/false);
    fcfg.execMode = ExecMode::Functional;
    // run() throws FatalError when the harness's host-reference
    // validation fails, so every kernel is checked for correctness even
    // when its digest is schedule-dependent.
    RunResult func = runKernel(name, fcfg);
    EXPECT_EQ(func.stats.cycles, 0u);

    // Functional execution is deterministic in full: memory image and
    // every outcome counter.
    RunResult func2 = runKernel(name, fcfg);
    ASSERT_EQ(func2.digest, func.digest)
        << name << ": functional mode is not deterministic";
    EXPECT_EQ(func2.stats.outcomes.lockSuccess,
              func.stats.outcomes.lockSuccess);
    EXPECT_EQ(func2.stats.outcomes.interWarpFail,
              func.stats.outcomes.interWarpFail);
    EXPECT_EQ(func2.stats.outcomes.intraWarpFail,
              func.stats.outcomes.intraWarpFail);
    EXPECT_EQ(func2.stats.outcomes.waitExitSuccess,
              func.stats.outcomes.waitExitSuccess);
    EXPECT_EQ(func2.stats.outcomes.waitExitFail,
              func.stats.outcomes.waitExitFail);
    EXPECT_EQ(func2.stats.warpInstructions, func.stats.warpInstructions);

    const bool invariant =
        std::find(kInvariantKernels.begin(), kInvariantKernels.end(),
                  name) != kInvariantKernels.end();
    if (!invariant)
        return;

    const SchedulerKind scheds[] = {SchedulerKind::LRR, SchedulerKind::GTO,
                                    SchedulerKind::CAWA};
    for (SchedulerKind sched : scheds) {
        for (bool bows : {false, true}) {
            RunResult cyc = runKernel(name, diffConfig(sched, bows));
            ASSERT_EQ(func.digest, cyc.digest)
                << name << ": functional memory diverged from cycle mode "
                << toString(sched) << (bows ? "+BOWS" : "");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, FunctionalEquivalence,
                         ::testing::ValuesIn(allKernelNames()),
                         [](const auto &info) { return info.param; });

TEST(MetricsEquivalence, SampledSeriesIdenticalAcrossExecutionModes)
{
    // Metrics determinism contract (docs/METRICS.md): the sampled time
    // series is a function of the simulated schedule only. For a
    // spin-heavy kernel (ATM: serialized critical sections, BOWS
    // back-off, long idle-skippable gaps), the serialized series must be
    // byte-identical with the idle-cycle fast-forward on or off.
    std::string series[2];
    for (bool skip : {true, false}) {
        GpuConfig cfg = diffConfig(SchedulerKind::GTO, /*bows=*/true);
        cfg.idleSkip = skip;
        Gpu gpu(cfg);
        metrics::MetricsSampler sampler(1000);
        gpu.setMetrics(&sampler);
        makeBenchmark("ATM", kScale)->run(gpu);
        ASSERT_GT(sampler.rows().size(), 1u);
        series[skip ? 0 : 1] = sampler.serialize();
    }
    ASSERT_EQ(series[1], series[0])
        << "metrics series diverged: skip=off vs skip=on";
}

TEST(Determinism, RepeatedRunsAreBitIdentical)
{
    // Belt and braces under the differential umbrella: two fresh Gpu
    // instances with the same seed-free configuration must agree.
    GpuConfig cfg = diffConfig(SchedulerKind::GTO, /*bows=*/true);
    RunResult a = runKernel("HT", cfg);
    RunResult b = runKernel("HT", cfg);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}

}  // namespace
}  // namespace bowsim
