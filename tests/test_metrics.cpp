#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/log.hpp"
#include "src/harness/json_check.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/registry.hpp"
#include "src/metrics/kernel_profile.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sim/gpu.hpp"

/**
 * Metrics layer (docs/METRICS.md): the sampler's observer effect, its
 * grid/boundary math at kernel end, its stats-mirroring columns, and
 * the checkMetricsSeries validator. The byte-equivalence of whole
 * series across idle-skip lives with the other differential properties
 * in test_differential.cpp.
 */

namespace bowsim {
namespace {

using harness::CheckResult;
using harness::Json;
using metrics::Kind;
using metrics::MetricsSampler;

TEST(MetricsKind, ToString)
{
    EXPECT_STREQ(metrics::toString(Kind::Counter), "counter");
    EXPECT_STREQ(metrics::toString(Kind::Gauge), "gauge");
    EXPECT_STREQ(metrics::toString(Kind::Rate), "rate");
}

/* ------------------------------------------------------------------ */

GpuConfig
samplerConfig()
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    cfg.bows.enabled = true;
    return cfg;
}

struct SampledRun {
    KernelStats stats;
    std::uint64_t digest = 0;
};

SampledRun
runWith(const GpuConfig &cfg, MetricsSampler *sampler)
{
    Gpu gpu(cfg);
    if (sampler)
        gpu.setMetrics(sampler);
    SampledRun r;
    r.stats = makeBenchmark(syncKernelNames().front(), 0.1)->run(gpu);
    r.digest = gpu.mem().digest();
    return r;
}

std::map<std::string, std::size_t>
columnIndex(const MetricsSampler &sampler)
{
    std::map<std::string, std::size_t> idx;
    for (std::size_t c = 0; c < sampler.columns().size(); ++c)
        idx.emplace(sampler.columns()[c].name, c);
    return idx;
}

TEST(MetricsSamplerTest, AttachingASamplerIsInvisibleToTheSimulation)
{
    const GpuConfig cfg = samplerConfig();
    SampledRun plain = runWith(cfg, nullptr);
    MetricsSampler sampler(500);
    SampledRun sampled = runWith(cfg, &sampler);

    EXPECT_GT(sampler.rows().size(), 1u)
        << "sampler was not attached";
    ASSERT_EQ(sampled.digest, plain.digest)
        << "sampling changed the final memory image";
    EXPECT_EQ(sampled.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(sampled.stats.warpInstructions, plain.stats.warpInstructions);
    EXPECT_EQ(sampled.stats.outcomes.total(), plain.stats.outcomes.total());
}

TEST(MetricsSamplerTest, GridAlignmentAndKernelEndBoundary)
{
    const Cycle interval = 500;
    MetricsSampler sampler(interval);
    SampledRun r = runWith(samplerConfig(), &sampler);

    const auto idx = columnIndex(sampler);
    ASSERT_TRUE(idx.count("cycle"));
    const std::size_t cycle_col = idx.at("cycle");
    const auto &rows = sampler.rows();
    ASSERT_GE(rows.size(), 2u);

    // Every row but the last sits exactly on the sample grid, one
    // interval apart; the last row is the kernel-end boundary and pins
    // the final cycle count.
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
        const auto cycle = static_cast<std::uint64_t>(rows[i][cycle_col]);
        EXPECT_EQ(cycle, (i + 1) * interval) << "row " << i;
    }
    const auto last =
        static_cast<std::uint64_t>(rows.back()[cycle_col]);
    EXPECT_EQ(last, r.stats.cycles);
    // A boundary row duplicating the final grid sample would break the
    // strictly-increasing cycle contract; the sampler must dedup it.
    if (rows.size() >= 2) {
        EXPECT_GT(last, static_cast<std::uint64_t>(
                            rows[rows.size() - 2][cycle_col]));
    }
}

TEST(MetricsSamplerTest, FinalRowAgreesWithKernelStats)
{
    MetricsSampler sampler(500);
    SampledRun r = runWith(samplerConfig(), &sampler);

    const auto idx = columnIndex(sampler);
    const auto &last = sampler.rows().back();
    auto col = [&](const char *name) {
        return static_cast<std::uint64_t>(last[idx.at(name)]);
    };
    EXPECT_EQ(col("cycle"), r.stats.cycles);
    EXPECT_EQ(col("warp_instructions"), r.stats.warpInstructions);
    EXPECT_EQ(col("thread_instructions"), r.stats.threadInstructions);
    EXPECT_EQ(col("l1_accesses"), r.stats.l1Accesses);
    EXPECT_EQ(col("l2_accesses"), r.stats.mem.l2Accesses);
    EXPECT_EQ(col("dram_accesses"), r.stats.mem.dramAccesses);
    EXPECT_EQ(col("dram_row_activations"), r.stats.mem.dramRowActivations);
    EXPECT_EQ(col("icnt_packets"), r.stats.mem.icntPackets);
    EXPECT_EQ(col("atomics"), r.stats.mem.atomics);
    EXPECT_EQ(col("lock_success"), r.stats.outcomes.lockSuccess);
    EXPECT_EQ(col("inter_warp_fail"), r.stats.outcomes.interWarpFail);
    EXPECT_EQ(col("resident_warp_cycles"), r.stats.residentWarpCycles);
    EXPECT_EQ(col("backed_off_warp_cycles"), r.stats.backedOffWarpCycles);
    EXPECT_EQ(col("sm_cycles"), r.stats.smCycles);
    // Per-SM issue counts partition the launch-wide total.
    std::uint64_t per_sm = 0;
    for (unsigned sm = 0; sm < 2; ++sm)
        per_sm += col(("sm" + std::to_string(sm) + ".warp_instructions")
                          .c_str());
    EXPECT_EQ(per_sm, r.stats.warpInstructions);
}

TEST(MetricsSamplerTest, SerializedJsonPassesSeriesAndStatsChecks)
{
    MetricsSampler sampler(500);
    SampledRun r = runWith(samplerConfig(), &sampler);

    const Json doc = Json::parse(sampler.serialize());
    CheckResult series = harness::checkMetricsSeries(doc);
    EXPECT_TRUE(series.ok) << series.message;

    const Json stats = harness::statsToJson(r.stats);
    CheckResult consistent = harness::checkMetricsSeries(doc, &stats);
    EXPECT_TRUE(consistent.ok) << consistent.message;
}

TEST(MetricsSamplerTest, CsvSerializationMatchesSchema)
{
    MetricsSampler sampler(500, "series.csv");
    runWith(samplerConfig(), &sampler);

    std::istringstream csv(sampler.serialize());
    std::string header;
    ASSERT_TRUE(std::getline(csv, header));
    EXPECT_EQ(header.rfind("cycle,launch,ipc,warp_instructions", 0), 0u)
        << header;
    const std::size_t cols = sampler.columns().size();
    std::size_t data_lines = 0;
    for (std::string line; std::getline(csv, line); ++data_lines) {
        std::size_t commas = 0;
        for (char ch : line)
            commas += ch == ',';
        EXPECT_EQ(commas + 1, cols) << "line " << data_lines + 1;
    }
    EXPECT_EQ(data_lines, sampler.rows().size());
}

TEST(MetricsSamplerTest, ProfileReportListsIssueDistribution)
{
    GpuConfig cfg = samplerConfig();
    cfg.collectStallBreakdown = true;
    SampledRun r = runWith(cfg, nullptr);
    const std::string report = metrics::profileReport(r.stats);
    EXPECT_NE(report.find("occupancy"), std::string::npos) << report;
    EXPECT_NE(report.find("sm0"), std::string::npos) << report;
    EXPECT_EQ(report.find("no stall breakdown"), std::string::npos)
        << report;

    // Without stall accounting the report degrades gracefully.
    SampledRun bare = runWith(samplerConfig(), nullptr);
    const std::string sparse = metrics::profileReport(bare.stats);
    EXPECT_NE(sparse.find("no stall breakdown"), std::string::npos)
        << sparse;
}

/* ------------------------------------------------------------------ */

Json
minimalSeries()
{
    Json doc = Json::object();
    doc.set("interval", std::int64_t{100});
    Json columns = Json::array();
    for (const char *name : {"cycle", "launch", "events"}) {
        Json col = Json::object();
        col.set("name", name);
        col.set("kind", "counter");
        columns.push(std::move(col));
    }
    doc.set("columns", std::move(columns));
    Json rows = Json::array();
    for (const auto &r : std::vector<std::vector<std::int64_t>>{
             {100, 0, 5}, {200, 0, 9}, {250, 0, 12}}) {
        Json row = Json::array();
        for (std::int64_t v : r)
            row.push(v);
        rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));
    return doc;
}

Json
seriesWithRows(const std::vector<std::vector<std::int64_t>> &data)
{
    Json doc = minimalSeries();
    Json rows = Json::array();
    for (const auto &r : data) {
        Json row = Json::array();
        for (std::int64_t v : r)
            row.push(v);
        rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));
    return doc;
}

TEST(CheckMetricsSeries, AcceptsWellFormedSeries)
{
    const Json doc = minimalSeries();
    CheckResult r = harness::checkMetricsSeries(doc);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(CheckMetricsSeries, RejectsNonMonotoneCycle)
{
    const Json doc = seriesWithRows({{200, 0, 5}, {100, 0, 9}});
    EXPECT_FALSE(harness::checkMetricsSeries(doc).ok);
}

TEST(CheckMetricsSeries, RejectsDecreasingCounter)
{
    const Json doc = seriesWithRows({{100, 0, 9}, {200, 0, 5}});
    CheckResult r = harness::checkMetricsSeries(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("counter"), std::string::npos) << r.message;
}

TEST(CheckMetricsSeries, RejectsOffGridRowThatIsNotABoundary)
{
    const Json doc =
        seriesWithRows({{100, 0, 1}, {150, 0, 2}, {300, 0, 3}});
    CheckResult r = harness::checkMetricsSeries(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("grid"), std::string::npos) << r.message;
}

TEST(CheckMetricsSeries, AcceptsOffGridLaunchBoundary)
{
    const Json doc =
        seriesWithRows({{100, 0, 1}, {150, 0, 2}, {200, 1, 3}});
    CheckResult r = harness::checkMetricsSeries(doc);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(CheckMetricsSeries, RejectsSkippedGridSample)
{
    const Json doc = seriesWithRows({{100, 0, 1}, {300, 0, 2}});
    CheckResult r = harness::checkMetricsSeries(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("interval"), std::string::npos) << r.message;
}

TEST(CheckMetricsSeries, RejectsBadIntervalAndSchema)
{
    Json doc = minimalSeries();
    doc.set("interval", std::int64_t{0});
    EXPECT_FALSE(harness::checkMetricsSeries(doc).ok);

    Json no_cols = minimalSeries();
    no_cols.set("columns", Json::array());
    EXPECT_FALSE(harness::checkMetricsSeries(no_cols).ok);
}

TEST(CheckMetricsSeries, DetectsFinalRowStatsDisagreement)
{
    MetricsSampler sampler(500);
    SampledRun r = runWith(samplerConfig(), &sampler);
    const Json doc = Json::parse(sampler.serialize());

    KernelStats tampered = r.stats;
    tampered.warpInstructions += 1;
    const Json stats = harness::statsToJson(tampered);
    CheckResult res = harness::checkMetricsSeries(doc, &stats);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.message.find("warp_instructions"), std::string::npos)
        << res.message;

    // Two devices: the link columns are checked too, each "d<N>." one
    // against its own device shard.
    GpuConfig cfg = samplerConfig();
    cfg.numDevices = 2;
    MetricsSampler two(500);
    SampledRun r2 = runWith(cfg, &two);
    const Json doc2 = Json::parse(two.serialize());
    const Json stats2 = harness::statsToJson(r2.stats);
    CheckResult ok2 = harness::checkMetricsSeries(doc2, &stats2);
    EXPECT_TRUE(ok2.ok) << ok2.message;
    EXPECT_NE(ok2.message.find("24 totals matched"), std::string::npos)
        << ok2.message;

    KernelStats link = r2.stats;
    ASSERT_EQ(link.perDevice.size(), 2u);
    link.perDevice[1].mem.linkPackets += 1;
    const Json tampered2 = harness::statsToJson(link);
    CheckResult res2 = harness::checkMetricsSeries(doc2, &tampered2);
    EXPECT_FALSE(res2.ok);
    EXPECT_NE(res2.message.find("devices[1].mem.link_packets"),
              std::string::npos)
        << res2.message;
}

TEST(CheckMetricsSeries, StatsMirrorsNameKeysTheRecordWrites)
{
    // Every stats key the sampler names must be one statsToJson writes,
    // or the final-row check would compare against an absent key.
    KernelStats shard;
    shard.mem.linkPackets = 1;
    KernelStats s = shard;
    s.perDevice = {shard, shard};
    const Json record = harness::statsToJson(s);
    const auto mirrors = metrics::statsMirrors(2);
    ASSERT_FALSE(mirrors.empty());
    for (const metrics::MetricColumn &m : mirrors) {
        const Json *j = m.device < 0
                            ? &record
                            : &record.at("devices").at(
                                  static_cast<std::size_t>(m.device));
        const std::string stat = m.stat;
        std::size_t from = 0;
        std::size_t dot;
        while ((dot = stat.find('.', from)) != std::string::npos) {
            const std::string key = stat.substr(from, dot - from);
            ASSERT_TRUE(j->has(key)) << m.name << ": " << stat;
            j = &j->at(key);
            from = dot + 1;
        }
        EXPECT_TRUE(j->has(stat.substr(from))) << m.name << ": " << stat;
    }
}

}  // namespace
}  // namespace bowsim
