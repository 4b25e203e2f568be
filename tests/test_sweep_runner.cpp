#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/log.hpp"
#include "src/harness/json_check.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/registry.hpp"
#include "src/sim/gpu.hpp"

/**
 * @file
 * The parallel sweep harness: results must be bit-identical and in
 * submission order regardless of the worker count, and a point that
 * dies (deadlock-watchdog SimError) must be captured per-point without
 * killing the sweep.
 */

namespace bowsim {
namespace {

using harness::Json;
using harness::SweepPoint;
using harness::SweepResult;
using harness::SweepRunner;

/** A small but non-trivial sweep: two kernels x two BOWS modes. */
std::vector<SweepPoint>
smallSweep()
{
    std::vector<SweepPoint> points;
    for (const char *kernel : {"TB", "ATM"}) {
        for (bool bows : {false, true}) {
            SweepPoint p;
            p.id = std::string(kernel) + (bows ? "/BOWS" : "/GTO");
            p.kernel = kernel;
            p.cfg = makeGtx480Config();
            p.cfg.numCores = 2;
            p.cfg.scheduler = SchedulerKind::GTO;
            p.cfg.bows.enabled = bows;
            p.scale = 0.05;
            points.push_back(std::move(p));
        }
    }
    return points;
}

TEST(SweepRunner, ResultsAreDeterministicAcrossWorkerCounts)
{
    const std::vector<SweepPoint> points = smallSweep();
    const std::vector<SweepResult> serial = SweepRunner(1).run(points);
    const std::vector<SweepResult> parallel = SweepRunner(8).run(points);

    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(parallel.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << points[i].id;
        ASSERT_TRUE(parallel[i].ok) << points[i].id;
        // statsToJson covers every reported field; equal dumps mean
        // bit-identical statistics.
        EXPECT_EQ(harness::statsToJson(serial[i].stats).dump(),
                  harness::statsToJson(parallel[i].stats).dump())
            << "point " << points[i].id
            << " differs between jobs=1 and jobs=8";
    }
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    const std::vector<SweepPoint> points = smallSweep();
    const std::vector<SweepResult> results = SweepRunner(4).run(points);
    ASSERT_EQ(results.size(), points.size());
    // Each kernel records its own name in its stats; matching names
    // prove results landed at their submission index.
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(results[i].ok);
        EXPECT_EQ(results[i].stats.kernel, points[i].kernel);
    }
}

TEST(SweepRunner, WatchdogErrorIsIsolatedToItsPoint)
{
    std::vector<SweepPoint> points = smallSweep();
    // Make the second point deadlock by watchdog standards: a spinning
    // kernel cannot finish in 10 cycles.
    points[1].cfg.watchdogCycles = 10;

    const std::vector<SweepResult> results = SweepRunner(4).run(points);
    ASSERT_EQ(results.size(), points.size());
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("watchdog"), std::string::npos)
        << "error was: " << results[1].error;
    EXPECT_TRUE(results[2].ok);
    EXPECT_TRUE(results[3].ok);
}

TEST(SweepRunner, WatchdogRaisesCatchableSimError)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    cfg.watchdogCycles = 10;
    Gpu gpu(cfg);
    auto bench = makeBenchmark("TB", 0.05);
    EXPECT_THROW(bench->run(gpu), SimError);
}

TEST(SweepRunner, CustomBodyPointsRun)
{
    SweepPoint p;
    p.id = "custom";
    p.cfg = makeGtx480Config();
    p.gpuBody = [](Gpu &) {
        KernelStats s;
        s.kernel = "custom";
        s.cycles = 42;
        return s;
    };
    const std::vector<SweepResult> results = SweepRunner(2).run({p});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].stats.cycles, 42u);
}

TEST(SweepRunner, SideArtifactsSurviveAFailedPoint)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "bowsim_side_artifacts";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // A watchdog abort still writes the trace window, the series and
    // the contention report leading up to it, each valid.
    SweepPoint p;
    p.id = "HT/watchdog";
    p.kernel = "HT";
    p.scale = 0.25;
    p.cfg = makeGtx480Config();
    p.cfg.numCores = 2;
    p.cfg.watchdogCycles = 5000;
    p.metricsInterval = 500;
    p.tracePath = (dir / "trace.json").string();
    p.metricsPath = (dir / "metrics.json").string();
    p.syncReportPath = (dir / "sync.json").string();
    const SweepResult failed = SweepRunner(1).run({p}).front();
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("watchdog"), std::string::npos)
        << "error was: " << failed.error;
    const harness::CheckResult trace =
        harness::checkChromeTrace(harness::loadJsonFile(p.tracePath));
    EXPECT_TRUE(trace.ok) << trace.message;
    const harness::CheckResult series =
        harness::checkMetricsSeries(harness::loadJsonFile(p.metricsPath));
    EXPECT_TRUE(series.ok) << series.message;
    const harness::CheckResult report =
        harness::checkSyncReport(harness::loadJsonFile(p.syncReportPath));
    EXPECT_TRUE(report.ok) << report.message;

    // A passing point fails with the write error instead.
    SweepPoint q = smallSweep().front();
    q.syncReportPath = (dir / "missing" / "sync.json").string();
    const SweepResult unwritable = SweepRunner(1).run({q}).front();
    EXPECT_FALSE(unwritable.ok);
    EXPECT_NE(unwritable.error.find("cannot write sync report"),
              std::string::npos)
        << "error was: " << unwritable.error;
    fs::remove_all(dir);
}

TEST(SweepRunner, ResolveJobsPrefersExplicitRequest)
{
    EXPECT_EQ(harness::resolveJobs(3), 3u);
    EXPECT_GE(harness::resolveJobs(0), 1u);
}

TEST(SweepToJson, RecordsEveryPointWithStatsOrError)
{
    std::vector<SweepPoint> points = smallSweep();
    points[1].cfg.watchdogCycles = 10;
    const std::vector<SweepResult> results = SweepRunner(2).run(points);

    const Json doc = harness::sweepToJson("unit_test", points, results);
    EXPECT_EQ(doc.at("bench").asString(), "unit_test");
    EXPECT_FALSE(doc.has("jobs"));  // an execution knob, not recorded
    const Json &arr = doc.at("points");
    ASSERT_EQ(arr.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Json &p = arr.at(i);
        EXPECT_EQ(p.at("id").asString(), points[i].id);
        EXPECT_EQ(p.at("ok").asBool(), results[i].ok);
        EXPECT_EQ(p.has("stats"), results[i].ok);
        EXPECT_EQ(p.has("error"), !results[i].ok);
    }

    // The artifact must survive a parse round-trip unchanged.
    const std::string text = doc.dump();
    EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(SweepToJson, RecordsConfigRecordAndStaticEnergy)
{
    std::vector<SweepPoint> points = smallSweep();
    points.resize(2);
    points[1].cfg.idleSkip = false;
    const std::vector<SweepResult> results = SweepRunner(1).run(points);

    const Json doc = harness::sweepToJson("unit_test", points, results);
    const Json &arr = doc.at("points");
    ASSERT_EQ(arr.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const Json &p = arr.at(i);
        // Every point writes the one configuration record, which leaves
        // out the execution knob idleSkip: a --no-skip point records
        // what a skipping one does.
        ASSERT_TRUE(p.has("config"));
        EXPECT_EQ(p.at("config").dump(),
                  harness::configToJson(points[i].cfg).dump());
        EXPECT_FALSE(p.at("config").has("idle_skip"));
        EXPECT_EQ(p.at("config").at("atomic_service_period").asInt(),
                  static_cast<std::int64_t>(points[i].cfg.atomicServicePeriod));
        ASSERT_TRUE(p.at("stats").has("static_energy_nj"));
        EXPECT_GT(p.at("stats").at("static_energy_nj").asDouble(), 0.0);
    }
    GpuConfig skipping = points[1].cfg;
    skipping.idleSkip = true;
    EXPECT_EQ(arr.at(1).at("config").dump(),
              harness::configToJson(skipping).dump());
    EXPECT_TRUE(harness::checkSweepArtifact(doc, 2).ok);
}

TEST(SweepToJson, RecordsExecMode)
{
    std::vector<SweepPoint> points = smallSweep();
    points.resize(2);
    points[0].cfg.execMode = ExecMode::Cycle;
    points[1].cfg.execMode = ExecMode::Functional;
    const std::vector<SweepResult> results = SweepRunner(1).run(points);

    const Json doc = harness::sweepToJson("unit_test", points, results);
    const Json &arr = doc.at("points");
    ASSERT_EQ(arr.size(), 2u);

    EXPECT_EQ(arr.at(0).at("config").at("exec_mode").asString(), "cycle");
    EXPECT_FALSE(arr.at(0).at("stats").has("ipc_est"));
    EXPECT_FALSE(arr.at(0).at("stats").has("ipc_ci95"));

    EXPECT_EQ(arr.at(1).at("config").at("exec_mode").asString(),
              "functional");
    EXPECT_EQ(arr.at(1).at("stats").at("cycles").asInt(), 0);
    EXPECT_FALSE(arr.at(1).at("stats").has("ipc_est"));

    // The full artifact passes the checker...
    EXPECT_TRUE(harness::checkSweepArtifact(doc, 2).ok);

    // ...and the checker enforces the mode contract: exec_mode must be
    // present and name a known mode, and no point may carry estimator
    // fields.
    auto brokenDoc = [](const char *mode, bool with_est) {
        const Json record = harness::configToJson(makeGtx480Config());
        Json cfg = Json::object();
        for (const auto &[key, value] : record.members()) {
            if (key != "exec_mode")
                cfg.set(key, value);
        }
        if (mode)
            cfg.set("exec_mode", mode);
        Json stats = Json::object();
        stats.set("cycles", 100);
        if (with_est)
            stats.set("ipc_est", 1.0);
        Json p = Json::object();
        p.set("id", "p0");
        p.set("ok", true);
        p.set("config", std::move(cfg));
        p.set("stats", std::move(stats));
        Json arr = Json::array();
        arr.push(std::move(p));
        Json d = Json::object();
        d.set("points", std::move(arr));
        return d;
    };
    EXPECT_TRUE(harness::checkSweepArtifact(brokenDoc("cycle", false), 1).ok);
    EXPECT_TRUE(
        harness::checkSweepArtifact(brokenDoc("functional", false), 1).ok);
    const harness::CheckResult missing =
        harness::checkSweepArtifact(brokenDoc(nullptr, false), 1);
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.message.find("exec_mode"), std::string::npos)
        << missing.message;
    const harness::CheckResult sampled =
        harness::checkSweepArtifact(brokenDoc("sampled", false), 1);
    EXPECT_FALSE(sampled.ok);
    EXPECT_NE(sampled.message.find("unknown exec_mode"), std::string::npos)
        << sampled.message;
    for (const char *mode : {"cycle", "functional"}) {
        const harness::CheckResult est =
            harness::checkSweepArtifact(brokenDoc(mode, true), 1);
        EXPECT_FALSE(est.ok) << mode;
        EXPECT_NE(est.message.find("estimator"), std::string::npos)
            << est.message;
    }
}

}  // namespace
}  // namespace bowsim
