#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/kernels/registry.hpp"
#include "src/mem/l2_bank.hpp"
#include "src/mem/lock_tracker.hpp"
#include "src/sim/gpu.hpp"
#include "src/sim/sm_core.hpp"

/**
 * @file
 * Oracle test of ready-mask arbitration (docs/PERF.md, "Ready-mask
 * arbitration"): each scheduler unit's ready bit must equal
 * SmCore::eligible() for every resident warp after every cycle, and the
 * earliest back-off deadline must equal a scan of the resident warps.
 * The launches drive the SMs directly, cycle by cycle, so no check
 * rides on GpuSystem's loop.
 */

namespace bowsim {
namespace {

using Causes = std::array<std::uint64_t, trace::kNumStallCauses>;

/**
 * Runs every launch of @p h on @p cfg's SMs one cycle at a time,
 * checking the masks after each SM's cycle, and validates the result.
 * Adds the stall table's per-cause totals into @p causes.
 */
void
runChecked(const GpuConfig &cfg, KernelHarness &h, Causes &causes)
{
    Gpu gpu(cfg);
    h.setup(gpu);
    for (const LaunchSpec &spec : h.launches()) {
        MemorySystem memsys(cfg);
        LockTracker tracker;
        LaunchState launch;
        launch.prog = spec.prog;
        launch.grid = spec.grid;
        launch.block = spec.block;
        launch.params = spec.params;
        launch.mem = &gpu.mem();
        launch.memsys = &memsys;
        launch.spinDetect = cfg.spinDetect;
        launch.tracker = &tracker;
        launch.ctaEnd = spec.grid.count();
        std::vector<std::unique_ptr<SmCore>> cores;
        for (unsigned c = 0; c < cfg.numCores; ++c)
            cores.push_back(std::make_unique<SmCore>(c, cfg, launch));
        bool busy = true;
        for (Cycle now = 1; busy; ++now) {
            ASSERT_LT(now, 2'000'000u) << spec.prog->name << " hangs";
            busy = false;
            for (auto &core : cores) {
                if (!core->busy())
                    continue;
                busy = true;
                core->cycle(now);
                const std::string mismatch = core->readyMaskMismatch();
                ASSERT_EQ(mismatch, "") << spec.prog->name;
            }
        }
        const std::vector<std::uint64_t> &table = launch.stats.stallCounts;
        for (std::size_t i = 0; i < table.size(); ++i)
            causes[i % trace::kNumStallCauses] += table[i];
    }
    EXPECT_TRUE(h.validate(gpu)) << h.name();
}

struct Bows {
    const char *name;
    bool enabled;
    bool deprioritize;
};

/** One SM geometry × one base policy; every kernel, every BOWS mode. */
class ReadyMask
    : public ::testing::TestWithParam<std::tuple<bool, SchedulerKind>> {};

TEST_P(ReadyMask, MatchesEligibleEveryCycle)
{
    const auto [pascal, policy] = GetParam();
    GpuConfig cfg = pascal ? makeGtx1080TiConfig() : makeGtx480Config();
    cfg.numCores = 2;
    cfg.scheduler = policy;
    cfg.collectStallBreakdown = true;
    // The sync kernels, plus RED for the barrier gate and STEN for the
    // LD/ST port (no sync kernel fills its 64-op window at this size).
    std::vector<std::string> kernels = syncKernelNames();
    kernels.push_back("RED");
    kernels.push_back("STEN");
    const Bows modes[] = {{"off", false, true},
                          {"on", true, true},
                          {"throttle-only", true, false}};
    Causes causes{};
    for (const Bows &mode : modes) {
        cfg.bows.enabled = mode.enabled;
        cfg.bows.deprioritize = mode.deprioritize;
        for (const std::string &kernel : kernels) {
            SCOPED_TRACE(kernel + " with BOWS " + mode.name);
            auto h = makeBenchmark(kernel, 0.05);
            runChecked(cfg, *h, causes);
            if (HasFatalFailure())
                return;
        }
    }
    // The runs reach every gate the masks mirror.
    for (trace::StallCause cause :
         {trace::StallCause::Barrier, trace::StallCause::Backoff,
          trace::StallCause::Scoreboard, trace::StallCause::PipelineBusy}) {
        EXPECT_GT(causes[static_cast<std::size_t>(cause)], 0u)
            << toString(cause) << " never blocked a warp";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Units, ReadyMask,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(SchedulerKind::LRR,
                                         SchedulerKind::GTO,
                                         SchedulerKind::CAWA,
                                         SchedulerKind::TwoLevel)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "Gtx1080Ti_"
                                                   : "Gtx480_") +
               toString(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bowsim
