#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/litmus.hpp"
#include "src/sim/gpu.hpp"
#include "src/sync/sync_kernels.hpp"

/**
 * @file
 * Litmus differential suite (labeled `slow`): the outcome-matrix
 * artifact is a *result*, so it must be byte-identical across every
 * execution knob (idle-skip), and the primitives' final memory must be
 * schedule-invariant — functional
 * mode, which rotates warps with bounded fairness and no timing, must
 * land on the exact cycle-mode memory image for every completing cell.
 */

namespace bowsim {
namespace {

using harness::LitmusCell;
using harness::LitmusCellResult;
using harness::LitmusOptions;
using harness::OccupancyLevel;
using harness::SyncOutcome;
using sync::Primitive;

/** Runs every cell sequentially under the given execution knob and
 *  returns the dumped artifact. */
std::string
runMatrixDump(const LitmusOptions &opts, bool idle_skip)
{
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    std::vector<LitmusCellResult> results(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        GpuConfig cfg = cells[i].cfg;
        cfg.idleSkip = idle_skip;
        Gpu gpu(cfg);
        results[i] = harness::runLitmusCell(cells[i], gpu);
    }
    return harness::litmusToJson("litmus", opts, cells, results).dump();
}

/**
 * A reduced matrix that still contains every outcome story: a base
 * livelock that BOWS resolves (tas/over), a BOWS-induced livelock
 * (ticket/GTO/bows/over), and the barrier's co-residency livelock.
 * Two cores so the idle-skip horizon spans more than one SM.
 */
LitmusOptions
reducedOptions()
{
    LitmusOptions opts = harness::defaultLitmusOptions();
    opts.base.numCores = 2;
    opts.primitives = {Primitive::TasLock, Primitive::TicketLock,
                      Primitive::GlobalBarrier};
    opts.schedulers = {SchedulerKind::GTO};
    return opts;  // 3 x 1 x 2 x 3 x 2 devices = 36 cells
}

TEST(LitmusEquivalence, ArtifactBytesInvariantAcrossExecutionKnobs)
{
    const LitmusOptions opts = reducedOptions();
    const std::string reference = runMatrixDump(opts, true);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(runMatrixDump(opts, false), reference)
        << "idle-skip off diverged";
}

/**
 * Cycle vs functional execution: for every cell that completes, the
 * final device memory must match byte for byte (FNV digest) — lock
 * counters, slots, error arrays, and lock words are all
 * schedule-invariant by construction.
 */
TEST(LitmusEquivalence, FunctionalModeMatchesCycleDigests)
{
    LitmusOptions opts = harness::defaultLitmusOptions();
    opts.schedulers = {SchedulerKind::GTO};
    // under + exact: every single-device cell completes in both modes
    // (over-subscription livelocks differ by design: timing-
    // dependent). At two devices the doubled population moves some
    // timing-dependent livelocks down to exact occupancy
    // (docs/SYNC.md, "The measured matrix"); those cells complete
    // functionally — bounded-fairness rotation cannot starve — so the
    // digest comparison only applies where cycle mode completes too.
    opts.occupancies = {OccupancyLevel::Under, OccupancyLevel::Exact};
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    ASSERT_EQ(cells.size(), 6u * 1u * 2u * 2u * 2u);
    std::size_t compared = 0;
    for (const LitmusCell &cell : cells) {
        Gpu cycle_gpu(cell.cfg);
        const LitmusCellResult rc =
            harness::runLitmusCell(cell, cycle_gpu);

        GpuConfig fcfg = cell.cfg;
        fcfg.execMode = ExecMode::Functional;
        Gpu func_gpu(fcfg);
        const LitmusCellResult rf =
            harness::runLitmusCell(cell, func_gpu);
        ASSERT_EQ(rf.outcome, SyncOutcome::Completed) << cell.id;

        if (cell.numDevices == 1) {
            ASSERT_EQ(rc.outcome, SyncOutcome::Completed) << cell.id;
        }
        if (rc.outcome != SyncOutcome::Completed)
            continue;
        EXPECT_EQ(cycle_gpu.mem().digest(), func_gpu.mem().digest())
            << cell.id;
        ++compared;
    }
    // All 24 single-device cells plus the completing two-device ones;
    // the exact count may shift with tuning, but most must compare.
    EXPECT_GE(compared, 24u + 12u);
}

}  // namespace
}  // namespace bowsim
