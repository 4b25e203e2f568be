#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/log.hpp"
#include "src/harness/json_check.hpp"
#include "src/harness/litmus.hpp"
#include "src/harness/sweep.hpp"
#include "src/sim/gpu.hpp"
#include "src/sync/sync_kernels.hpp"

/**
 * @file
 * The synchronization litmus harness (docs/SYNC.md): outcome
 * classification from abort records, matrix construction, artifact
 * structure, and live golden cells — including the matrix's headline
 * result, a base-scheduler livelock that enabling BOWS resolves.
 */

namespace bowsim {
namespace {

using harness::LitmusCell;
using harness::LitmusCellResult;
using harness::LitmusOptions;
using harness::OccupancyLevel;
using harness::SyncOutcome;

TEST(Litmus, OutcomeNamesRoundTrip)
{
    for (SyncOutcome o :
         {SyncOutcome::Completed, SyncOutcome::Livelocked,
          SyncOutcome::Deadlocked, SyncOutcome::WatchdogKilled}) {
        SyncOutcome back;
        ASSERT_TRUE(harness::parseSyncOutcome(harness::toString(o), &back));
        EXPECT_EQ(back, o);
    }
    SyncOutcome out;
    EXPECT_FALSE(harness::parseSyncOutcome("hung", &out));
    EXPECT_FALSE(harness::parseSyncOutcome("", &out));
}

TEST(Litmus, OccupancyNamesRoundTrip)
{
    for (OccupancyLevel level : harness::allOccupancyLevels()) {
        OccupancyLevel back;
        ASSERT_TRUE(
            harness::parseOccupancy(harness::toString(level), &back));
        EXPECT_EQ(back, level);
    }
    OccupancyLevel out;
    EXPECT_FALSE(harness::parseOccupancy("full", &out));
}

// --- classification ---------------------------------------------------

GpuConfig
classifierConfig()
{
    GpuConfig cfg = harness::defaultLitmusConfig();
    cfg.watchdogCycles = 1'000'000;
    return cfg;
}

/** Functional mode's zero-progress abort is a direct deadlock witness,
 *  whatever the counters say. */
TEST(Litmus, ClassifiesFunctionalNoProgressAsDeadlock)
{
    LaunchAbort abort;
    abort.valid = true;
    abort.cause = AbortCause::NoProgress;
    abort.stats.warpInstructions = 1000;
    abort.stats.sibInstructions = 900;  // would otherwise be livelock
    EXPECT_EQ(harness::classifySyncAbort(abort, classifierConfig()),
              SyncOutcome::Deadlocked);
}

/** Nothing issued for the trailing quarter of the budget: blocked. */
TEST(Litmus, ClassifiesLongIdleTailAsDeadlock)
{
    LaunchAbort abort;
    abort.valid = true;
    abort.cause = AbortCause::Watchdog;
    abort.atCycle = 1'000'000;
    abort.lastIssueCycle = 700'000;  // idle 300k >= 250k threshold
    abort.stats.warpInstructions = 1000;
    abort.stats.sibInstructions = 900;
    EXPECT_EQ(harness::classifySyncAbort(abort, classifierConfig()),
              SyncOutcome::Deadlocked);
}

/** Still issuing, spin-dominated stream: livelocked. */
TEST(Litmus, ClassifiesSpinDominatedStreamAsLivelock)
{
    LaunchAbort abort;
    abort.valid = true;
    abort.cause = AbortCause::Watchdog;
    abort.atCycle = 1'000'000;
    abort.lastIssueCycle = 999'999;
    abort.stats.warpInstructions = 1000;
    abort.stats.sibInstructions = 50;  // exactly the 5% threshold
    EXPECT_EQ(harness::classifySyncAbort(abort, classifierConfig()),
              SyncOutcome::Livelocked);
}

/** Still issuing, below the spin threshold: the budget was too small. */
TEST(Litmus, ClassifiesBusyStreamAsWatchdogKilled)
{
    LaunchAbort abort;
    abort.valid = true;
    abort.cause = AbortCause::Watchdog;
    abort.atCycle = 1'000'000;
    abort.lastIssueCycle = 999'999;
    abort.stats.warpInstructions = 1000;
    abort.stats.sibInstructions = 49;  // just below 5%
    EXPECT_EQ(harness::classifySyncAbort(abort, classifierConfig()),
              SyncOutcome::WatchdogKilled);
    abort.stats.sibInstructions = 0;
    EXPECT_EQ(harness::classifySyncAbort(abort, classifierConfig()),
              SyncOutcome::WatchdogKilled);
}

// --- matrix construction ----------------------------------------------

TEST(Litmus, DefaultMatrixSpansEveryAxisCombination)
{
    const LitmusOptions opts = harness::defaultLitmusOptions();
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    EXPECT_EQ(cells.size(), 6u * 4u * 2u * 3u * 2u);
    std::set<std::string> ids;
    for (const LitmusCell &cell : cells) {
        ids.insert(cell.id);
        // Per-cell configuration reflects the cell's coordinates.
        EXPECT_EQ(cell.cfg.scheduler, cell.scheduler) << cell.id;
        EXPECT_EQ(cell.cfg.bows.enabled, cell.bows) << cell.id;
        EXPECT_EQ(cell.cfg.numDevices, cell.numDevices) << cell.id;
        EXPECT_GT(cell.geometry.ctas, 0u) << cell.id;
    }
    EXPECT_EQ(ids.size(), cells.size());  // ids are unique
    EXPECT_EQ(cells.front().id, "tas/LRR/base/under/d1");
    EXPECT_TRUE(ids.count("barrier/CAWA/bows/over/d1"));
    EXPECT_TRUE(ids.count("system-barrier/TwoLevel/bows/over/d2"));
}

TEST(Litmus, DeviceAxisScalesOccupancyGeometry)
{
    LitmusOptions opts = harness::defaultLitmusOptions();
    opts.primitives = {sync::Primitive::GlobalBarrier};
    opts.schedulers = {SchedulerKind::LRR};
    opts.bowsModes = {false};
    opts.occupancies = {harness::OccupancyLevel::Exact};
    opts.devices = {1, 2};
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    ASSERT_EQ(cells.size(), 2u);
    // "exact" means the whole grid is co-resident system-wide, so the
    // two-device cell runs twice the CTAs (chunked evenly, each device
    // holds exactly its own capacity).
    EXPECT_EQ(cells[1].geometry.ctas, cells[0].geometry.ctas * 2);
    EXPECT_EQ(cells[1].cfg.numDevices, 2u);
}

TEST(Litmus, OccupancyLevelsScaleTheGrid)
{
    LitmusOptions opts = harness::defaultLitmusOptions();
    opts.primitives = {sync::Primitive::TasLock};
    opts.schedulers = {SchedulerKind::GTO};
    opts.bowsModes = {false};
    opts.devices = {1};
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    ASSERT_EQ(cells.size(), 3u);  // under, exact, over
    const unsigned under = cells[0].geometry.ctas;
    const unsigned exact = cells[1].geometry.ctas;
    const unsigned over = cells[2].geometry.ctas;
    EXPECT_LT(under, exact);
    EXPECT_EQ(over, exact * 2);
    EXPECT_EQ(under, exact / 2);
}

// --- live golden cells ------------------------------------------------

LitmusOptions
singleCellOptions(sync::Primitive p, SchedulerKind sched, bool bows,
                  OccupancyLevel level)
{
    LitmusOptions opts = harness::defaultLitmusOptions();
    opts.primitives = {p};
    opts.schedulers = {sched};
    opts.bowsModes = {bows};
    opts.occupancies = {level};
    opts.devices = {1};
    return opts;
}

LitmusCellResult
runSingleCell(const LitmusOptions &opts)
{
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    EXPECT_EQ(cells.size(), 1u);
    Gpu gpu(cells[0].cfg);
    return harness::runLitmusCell(cells[0], gpu);
}

/** An uncontended under-subscribed cell completes and validates. */
TEST(Litmus, UnderSubscribedTasCompletes)
{
    const LitmusCellResult r = runSingleCell(singleCellOptions(
        sync::Primitive::TasLock, SchedulerKind::LRR, false,
        OccupancyLevel::Under));
    EXPECT_EQ(r.outcome, SyncOutcome::Completed);
    EXPECT_TRUE(r.detail.empty());
    EXPECT_GT(r.stats.outcomes.lockSuccess, 0u);
}

/**
 * The matrix's headline golden cell (docs/SYNC.md): with scarce atomic
 * bandwidth, an over-subscribed TAS lock under pure GTO livelocks —
 * the spinners' CAS storm starves the holder's release — and enabling
 * BOWS (only change) resolves it. Pinned as outcomes, not cycle
 * counts, so the pin survives timing-model tuning that does not change
 * the story.
 */
TEST(Litmus, GoldenOverSubscribedTasGtoLivelocksAndBowsResolves)
{
    const LitmusCellResult base = runSingleCell(singleCellOptions(
        sync::Primitive::TasLock, SchedulerKind::GTO, false,
        OccupancyLevel::Over));
    EXPECT_EQ(base.outcome, SyncOutcome::Livelocked);
    EXPECT_FALSE(base.detail.empty());
    // The abort snapshot is spin-dominated, the livelock witness.
    ASSERT_GT(base.stats.warpInstructions, 0u);
    EXPECT_GE(static_cast<double>(base.stats.sibInstructions) /
                  static_cast<double>(base.stats.warpInstructions),
              harness::kLivelockSibFraction);

    const LitmusCellResult bows = runSingleCell(singleCellOptions(
        sync::Primitive::TasLock, SchedulerKind::GTO, true,
        OccupancyLevel::Over));
    EXPECT_EQ(bows.outcome, SyncOutcome::Completed);
}

/** The software global barrier needs every CTA co-resident: at twice
 *  the resident capacity it can never complete, BOWS or not. */
TEST(Litmus, GoldenOverSubscribedBarrierLivelocksEvenWithBows)
{
    const LitmusCellResult r = runSingleCell(singleCellOptions(
        sync::Primitive::GlobalBarrier, SchedulerKind::LRR, true,
        OccupancyLevel::Over));
    EXPECT_EQ(r.outcome, SyncOutcome::Livelocked);
}

/** The same cell on two devices: the abort record keeps one stats shard
 *  per device in both execution modes, and the shards add up to the
 *  system total. */
TEST(Litmus, GoldenOverSubscribedBarrierAbortKeepsDeviceShards)
{
    for (ExecMode mode : {ExecMode::Cycle, ExecMode::Functional}) {
        LitmusOptions opts = singleCellOptions(
            sync::Primitive::GlobalBarrier, SchedulerKind::LRR, true,
            OccupancyLevel::Over);
        opts.base.execMode = mode;
        opts.devices = {2};
        const LitmusCellResult r = runSingleCell(opts);
        EXPECT_EQ(r.outcome, SyncOutcome::Livelocked) << toString(mode);
        ASSERT_EQ(r.stats.perDevice.size(), 2u) << toString(mode);
        std::uint64_t shard_sum = 0;
        for (const KernelStats &shard : r.stats.perDevice)
            shard_sum += shard.warpInstructions;
        EXPECT_EQ(shard_sum, r.stats.warpInstructions) << toString(mode);
    }
}

// --- artifact ---------------------------------------------------------

TEST(Litmus, JsonArtifactIsSelfDescribingAndValidates)
{
    LitmusOptions opts = singleCellOptions(sync::Primitive::TasLock,
                                           SchedulerKind::LRR, false,
                                           OccupancyLevel::Under);
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    std::vector<LitmusCellResult> results(1);
    results[0].outcome = SyncOutcome::Completed;
    results[0].stats.kernel = "sync_tas";

    const harness::Json doc =
        harness::litmusToJson("litmus", opts, cells, results);
    EXPECT_EQ(doc.at("bench").asString(), "litmus");
    // The base configuration is recorded once, as the one config
    // record; execution knobs must not leak into it, since the
    // artifact is byte-identical across idle-skip by contract.
    const harness::Json &cfg = doc.at("config");
    EXPECT_EQ(cfg.dump(), harness::configToJson(opts.base).dump());
    EXPECT_EQ(cfg.at("exec_mode").asString(), "cycle");
    EXPECT_EQ(cfg.at("watchdog_cycles").asInt(), 3'000'000);
    EXPECT_TRUE(cfg.has("ddos_time_share"));
    EXPECT_FALSE(cfg.has("idle_skip"));
    ASSERT_EQ(doc.at("cells").size(), 1u);
    const harness::Json &cell = doc.at("cells").at(0);
    EXPECT_EQ(cell.at("id").asString(), "tas/LRR/base/under/d1");
    EXPECT_EQ(cell.at("devices").asInt(), 1);
    EXPECT_EQ(cell.at("outcome").asString(), "completed");
    EXPECT_FALSE(cell.has("detail"));  // empty detail is omitted
    // A cell records its coordinates, not a config of its own.
    EXPECT_FALSE(cell.has("config"));

    const harness::CheckResult check =
        harness::checkLitmusMatrix(doc, 1);
    EXPECT_TRUE(check.ok) << check.message;
}

TEST(Litmus, JsonArtifactRecordsAbortDetail)
{
    LitmusOptions opts = singleCellOptions(sync::Primitive::TasLock,
                                           SchedulerKind::GTO, false,
                                           OccupancyLevel::Over);
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    std::vector<LitmusCellResult> results(1);
    results[0].outcome = SyncOutcome::Livelocked;
    results[0].detail = "hit 3000000-cycle watchdog (deadlock?)";
    const harness::Json doc =
        harness::litmusToJson("litmus", opts, cells, results);
    const harness::Json &cell = doc.at("cells").at(0);
    EXPECT_EQ(cell.at("outcome").asString(), "livelocked");
    EXPECT_EQ(cell.at("detail").asString(),
              "hit 3000000-cycle watchdog (deadlock?)");
}

TEST(Litmus, MismatchedResultVectorPanics)
{
    const LitmusOptions opts = singleCellOptions(
        sync::Primitive::TasLock, SchedulerKind::LRR, false,
        OccupancyLevel::Under);
    const std::vector<LitmusCell> cells =
        harness::buildLitmusCells(opts);
    const std::vector<LitmusCellResult> results;  // wrong size
    EXPECT_THROW(harness::litmusToJson("litmus", opts, cells, results),
                 PanicError);
}

}  // namespace
}  // namespace bowsim
