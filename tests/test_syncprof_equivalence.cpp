#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/json.hpp"
#include "src/harness/json_check.hpp"
#include "src/harness/litmus.hpp"
#include "src/sim/gpu.hpp"
#include "src/syncprof/syncprof.hpp"

/**
 * @file
 * Whole-simulation guarantees of the sync-contention profiler
 * (docs/SYNC.md): the --sync-report document is byte-identical across
 * the execution knob that may not change results (idle-skip), the
 * device split folds to the aggregate, and the matrix's
 * headline result carries quantitative evidence — the BOWS-cured
 * CAS-storm cells show a >= 0.9 failed share in the base cell and at
 * most half the convoy depth (failures per acquire) in the BOWS twin.
 */

namespace bowsim {
namespace {

using harness::Json;
using harness::LitmusCell;
using harness::LitmusCellResult;
using harness::LitmusOptions;
using harness::OccupancyLevel;
using harness::SyncOutcome;
using syncprof::SyncProfileRegistry;

LitmusOptions
cellOptions(sync::Primitive p, SchedulerKind sched, bool bows,
            OccupancyLevel level, unsigned devices)
{
    LitmusOptions opts = harness::defaultLitmusOptions();
    opts.primitives = {p};
    opts.schedulers = {sched};
    opts.bowsModes = {bows};
    opts.occupancies = {level};
    opts.devices = {devices};
    return opts;
}

/** Runs the single cell of @p opts with a profiler attached and returns
 *  (result, report-JSON text). */
std::pair<LitmusCellResult, std::string>
runProfiled(const LitmusOptions &opts, bool idle_skip)
{
    std::vector<LitmusCell> cells = harness::buildLitmusCells(opts);
    EXPECT_EQ(cells.size(), 1u);
    cells[0].cfg.idleSkip = idle_skip;
    SyncProfileRegistry reg;
    Gpu gpu(cells[0].cfg);
    gpu.setSyncProf(&reg);
    LitmusCellResult r = harness::runLitmusCell(cells[0], gpu);
    return {r, reg.reportJson().dump()};
}

/** The contended livelock cell: every byte of the report must be a pure
 *  function of the simulated schedule, not of how we executed it. */
TEST(SyncProfEquivalence, ReportBytesInvariantAcrossExecutionKnobs)
{
    const LitmusOptions opts =
        cellOptions(sync::Primitive::TasLock, SchedulerKind::GTO, false,
                    OccupancyLevel::Over, 1);
    const auto [base_result, base_report] = runProfiled(opts, true);
    EXPECT_EQ(base_result.outcome, SyncOutcome::Livelocked);
    const harness::CheckResult chk =
        harness::checkSyncReport(Json::parse(base_report));
    EXPECT_TRUE(chk.ok) << chk.message;
    const auto [r, report] = runProfiled(opts, false);
    EXPECT_EQ(r.outcome, base_result.outcome);
    EXPECT_EQ(report, base_report) << "idle_skip off diverged";
}

/** On one device every timed atomic is local; on two, the halves split
 *  local/remote but always fold back to the total. Device-scope atomics
 *  (the locks) resolve at the local L2 by design, so the primitive that
 *  exercises the link is the system-scope barrier, whose atomics route
 *  to the barrier word's home device. */
TEST(SyncProfEquivalence, DeviceSplitFoldsToAggregate)
{
    for (unsigned devices : {1u, 2u}) {
        const LitmusOptions opts =
            cellOptions(sync::Primitive::SystemBarrier,
                        SchedulerKind::LRR, true, OccupancyLevel::Exact,
                        devices);
        const auto [r, report] = runProfiled(opts, true);
        EXPECT_EQ(r.outcome, SyncOutcome::Completed);
        const Json doc = Json::parse(report);
        const Json &totals = doc.at("totals");
        const std::int64_t timed = totals.at("timed_atomics").asInt();
        const std::int64_t local = totals.at("local_atomics").asInt();
        const std::int64_t remote = totals.at("remote_atomics").asInt();
        EXPECT_GT(timed, 0) << "devices=" << devices;
        EXPECT_EQ(local + remote, timed) << "devices=" << devices;
        if (devices == 1)
            EXPECT_EQ(remote, 0);
        else
            EXPECT_GT(remote, 0);
    }
}

/**
 * The headline result, quantified: on every scheduler, the
 * over-subscribed test-and-set cell livelocks under the base scheduler
 * with a CAS storm on the lock word (failed share >= 0.9, storm
 * detector fired), and the BOWS twin completes with at most half the
 * convoy depth. The *share* cannot halve — a healthy test-and-set lock
 * under N waiters still fails ~(N-1)/N of its attempts — so the cure
 * shows up in failures-per-acquire, the number of wasted attempts each
 * hand-off costs.
 */
TEST(SyncProfEquivalence, BowsCuresTheBaseSchedulerCasStorm)
{
    for (SchedulerKind sched :
         {SchedulerKind::LRR, SchedulerKind::GTO, SchedulerKind::CAWA,
          SchedulerKind::TwoLevel}) {
        const auto [base, base_report] = runProfiled(
            cellOptions(sync::Primitive::TasLock, sched, false,
                        OccupancyLevel::Over, 1),
            true);
        const auto [bows, bows_report] = runProfiled(
            cellOptions(sync::Primitive::TasLock, sched, true,
                        OccupancyLevel::Over, 1),
            true);
        ASSERT_EQ(base.outcome, SyncOutcome::Livelocked)
            << toString(sched);
        ASSERT_EQ(bows.outcome, SyncOutcome::Completed)
            << toString(sched);
        // Both cells carry evidence attributed to the same lock word.
        ASSERT_TRUE(base.hasEvidence);
        ASSERT_TRUE(bows.hasEvidence);
        EXPECT_EQ(base.evidenceAddr, bows.evidenceAddr);
        EXPECT_GE(base.evidenceFailedShare, 0.9) << toString(sched);
        EXPECT_GT(base.evidenceStorms, 0u) << toString(sched);
        const double base_depth =
            static_cast<double>(base.evidenceCasFailures) /
            static_cast<double>(std::max<std::uint64_t>(
                1, base.evidenceCasAttempts - base.evidenceCasFailures));
        const double bows_depth =
            static_cast<double>(bows.evidenceCasFailures) /
            static_cast<double>(std::max<std::uint64_t>(
                1, bows.evidenceCasAttempts - bows.evidenceCasFailures));
        EXPECT_LE(bows_depth, base_depth / 2.0)
            << toString(sched) << ": base " << base_depth << " bows "
            << bows_depth;
    }
}

}  // namespace
}  // namespace bowsim
