#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/log.hpp"
#include "src/harness/json.hpp"
#include "src/harness/json_check.hpp"
#include "src/harness/litmus.hpp"
#include "src/harness/sweep.hpp"

/**
 * @file
 * The minimal JSON layer used for the bench artifacts: deterministic
 * (insertion-ordered) dumps, parse/dump round trips, string escaping,
 * and loud failures on malformed input.
 */

namespace bowsim {
namespace {

using harness::Json;

TEST(Json, ObjectKeepsInsertionOrder)
{
    Json o = Json::object();
    o.set("zebra", Json(1));
    o.set("alpha", Json(2));
    o.set("mid", Json(3));
    EXPECT_EQ(o.dump(), R"({"zebra":1,"alpha":2,"mid":3})");
}

TEST(Json, ScalarsDump)
{
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(-7).dump(), "-7");
    EXPECT_EQ(Json(std::uint64_t{1234567890123456789ull}).dump(),
              "1234567890123456789");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
    EXPECT_EQ(Json().dump(), "null");
}

TEST(Json, StringEscapesRoundTrip)
{
    const std::string tricky = "quote\" slash\\ tab\t newline\n ctrl\x01";
    const std::string text = Json(tricky).dump();
    EXPECT_EQ(Json::parse(text).asString(), tricky);
}

TEST(Json, ParseDumpRoundTrip)
{
    const std::string text =
        R"({"a":[1,2.5,true,null],"b":{"nested":"x"},"c":-3})";
    EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(Json, ParseAccessors)
{
    const Json doc = Json::parse(R"({"n":42,"f":1.5,"s":"v","arr":[7]})");
    EXPECT_EQ(doc.at("n").asInt(), 42);
    EXPECT_DOUBLE_EQ(doc.at("f").asDouble(), 1.5);
    EXPECT_EQ(doc.at("s").asString(), "v");
    ASSERT_EQ(doc.at("arr").size(), 1u);
    EXPECT_EQ(doc.at("arr").at(0).asInt(), 7);
    EXPECT_TRUE(doc.has("n"));
    EXPECT_FALSE(doc.has("missing"));
}

TEST(Json, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse("{"), FatalError);
    EXPECT_THROW(Json::parse("[1,]"), FatalError);
    EXPECT_THROW(Json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\":1} trailing"), FatalError);
}

TEST(Json, MissingKeyThrows)
{
    const Json doc = Json::parse(R"({"a":1})");
    EXPECT_THROW(doc.at("b"), FatalError);
}

// --- json_check --litmus ----------------------------------------------

/** A small but complete litmus matrix: tas x LRR x {base,bows} x
 *  under x {1,2} devices. */
harness::LitmusOptions
smallLitmusOptions()
{
    harness::LitmusOptions opts = harness::defaultLitmusOptions();
    opts.primitives = {sync::Primitive::TasLock};
    opts.schedulers = {SchedulerKind::LRR};
    opts.bowsModes = {false, true};
    opts.occupancies = {harness::OccupancyLevel::Under};
    return opts;
}

/** Every cell completed, each multi-device cell carrying one stats
 *  shard per device as real runs do. */
std::vector<harness::LitmusCellResult>
completedResults(const std::vector<harness::LitmusCell> &cells)
{
    std::vector<harness::LitmusCellResult> results(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        results[i].outcome = harness::SyncOutcome::Completed;
        if (cells[i].numDevices > 1)
            results[i].stats.perDevice.resize(cells[i].numDevices);
    }
    return results;
}

/** The small matrix as a document, every cell marked completed. */
Json
litmusDoc()
{
    const harness::LitmusOptions opts = smallLitmusOptions();
    const std::vector<harness::LitmusCell> cells =
        harness::buildLitmusCells(opts);
    return harness::litmusToJson("litmus", opts, cells,
                                 completedResults(cells));
}

/** First-occurrence textual surgery for building broken documents. */
Json
mutated(const Json &doc, const std::string &from, const std::string &to)
{
    std::string text = doc.dump();
    const std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    return Json::parse(text);
}

TEST(JsonCheckLitmus, ValidMatrixPasses)
{
    const harness::CheckResult r =
        harness::checkLitmusMatrix(litmusDoc(), 4);
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_NE(r.message.find("4 cells"), std::string::npos);
    EXPECT_NE(r.message.find("completed"), std::string::npos);
}

TEST(JsonCheckLitmus, DeviceAxisProductMismatchFails)
{
    // Shrink the header's devices axis: the cells now span more than
    // the axis lists describe.
    const Json doc =
        mutated(litmusDoc(), "\"devices\":[1,2]", "\"devices\":[1]");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("axis lists span"), std::string::npos);
}

TEST(JsonCheckLitmus, ExpectedCellCountMismatchFails)
{
    const harness::CheckResult r =
        harness::checkLitmusMatrix(litmusDoc(), 90);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("expected 90"), std::string::npos);
}

TEST(JsonCheckLitmus, MissingHeaderFieldFails)
{
    // Strip the watchdog budget from the header's config record, the
    // document's only one.
    const Json doc = mutated(litmusDoc(), "\"watchdog_cycles\":3000000,",
                             "");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("watchdog_cycles"), std::string::npos);
}

TEST(JsonCheckLitmus, IllegalOutcomeFails)
{
    const Json doc = mutated(litmusDoc(), "\"outcome\":\"completed\"",
                             "\"outcome\":\"exploded\"");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("exploded"), std::string::npos);
}

TEST(JsonCheckLitmus, HeaderConfigUnknownExecModeFails)
{
    const Json doc = mutated(litmusDoc(), "\"exec_mode\":\"cycle\"",
                             "\"exec_mode\":\"sampled\"");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("unknown exec_mode \"sampled\""),
              std::string::npos)
        << r.message;
}

TEST(JsonCheckLitmus, DuplicateCellFails)
{
    // Rewrite the base cell into a second bows cell.
    const Json doc = mutated(litmusDoc(), "\"bows\":false",
                             "\"bows\":true");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("duplicate"), std::string::npos);
}

TEST(JsonCheckLitmus, TwoDeviceCellWithoutShardsFails)
{
    // A multi-device cell must carry its per-device shards whatever its
    // outcome, so a stats block that lost them fails the document.
    const harness::LitmusOptions opts = smallLitmusOptions();
    const std::vector<harness::LitmusCell> cells =
        harness::buildLitmusCells(opts);
    std::vector<harness::LitmusCellResult> results = completedResults(cells);
    std::size_t two_device = 0;
    while (two_device < cells.size() && cells[two_device].numDevices != 2)
        ++two_device;
    ASSERT_LT(two_device, cells.size());
    results[two_device].stats.perDevice.clear();
    const harness::CheckResult r = harness::checkLitmusMatrix(
        harness::litmusToJson("litmus", opts, cells, results));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("runs on 2 device(s) but carries 0 stats "
                             "shard(s)"),
              std::string::npos)
        << r.message;
}

// --- per-cell contention evidence (docs/SYNC.md) ------------------------

/** litmusDoc() with the first cell livelocked and carrying evidence. */
Json
evidenceDoc()
{
    const harness::LitmusOptions opts = smallLitmusOptions();
    const std::vector<harness::LitmusCell> cells =
        harness::buildLitmusCells(opts);
    std::vector<harness::LitmusCellResult> results = completedResults(cells);
    results[0].outcome = harness::SyncOutcome::Livelocked;
    results[0].hasEvidence = true;
    results[0].evidenceAddr = 0x1f80;
    results[0].evidenceCasAttempts = 1000;
    results[0].evidenceCasFailures = 970;
    results[0].evidenceFailedShare = 0.97;
    results[0].evidencePeakWaiters = 15;
    results[0].evidenceStorms = 2;
    return harness::litmusToJson("litmus", opts, cells, results);
}

TEST(JsonCheckLitmus, LivelockedCellWithEvidencePasses)
{
    const harness::CheckResult r =
        harness::checkLitmusMatrix(evidenceDoc(), 4);
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_NE(r.message.find("1 with contention evidence"),
              std::string::npos);
}

TEST(JsonCheckLitmus, LivelockedCycleCellWithoutEvidenceFails)
{
    // A livelocked cycle-mode cell is a claim; the evidence block is
    // the proof, so its absence fails the document.
    const Json doc = mutated(litmusDoc(), "\"outcome\":\"completed\"",
                             "\"outcome\":\"livelocked\"");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("evidence"), std::string::npos);
}

TEST(JsonCheckLitmus, EvidenceFailedShareOutOfRangeFails)
{
    const Json doc = mutated(evidenceDoc(), "\"failed_share\":0.97",
                             "\"failed_share\":1.5");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("failed_share"), std::string::npos);
}

TEST(JsonCheckLitmus, EvidenceFailuresExceedingAttemptsFails)
{
    const Json doc = mutated(evidenceDoc(), "\"cas_failures\":970",
                             "\"cas_failures\":1001");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("failures"), std::string::npos);
}

TEST(JsonCheckLitmus, EvidenceMissingFieldFails)
{
    const Json doc = mutated(evidenceDoc(), "\"peak_waiters\":15,", "");
    const harness::CheckResult r = harness::checkLitmusMatrix(doc);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("peak_waiters"), std::string::npos);
}

// --- json_check: sweep cache blocks ------------------------------------

/** A minimal valid sweep artifact with a "cache" block. */
Json
cachedSweepDoc(const char *mode, int hits, int misses, int stored,
               int bypassed)
{
    Json stats = Json::object();
    stats.set("cycles", 100);
    Json p = Json::object();
    p.set("id", "p0");
    p.set("ok", true);
    p.set("config", harness::configToJson(GpuConfig{}));
    p.set("stats", std::move(stats));
    Json arr = Json::array();
    arr.push(std::move(p));
    Json cache = Json::object();
    cache.set("mode", mode);
    cache.set("hits", hits);
    cache.set("misses", misses);
    cache.set("stored", stored);
    cache.set("bypassed", bypassed);
    Json d = Json::object();
    d.set("bench", "unit");
    d.set("cache", std::move(cache));
    d.set("points", std::move(arr));
    return d;
}

TEST(JsonCheckCache, ValidBlockPassesAndIsReported)
{
    const harness::CheckResult hit =
        harness::checkSweepArtifact(cachedSweepDoc("rw", 1, 0, 0, 0),
                                    1, 1);
    EXPECT_TRUE(hit.ok) << hit.message;
    EXPECT_NE(hit.message.find("1 hit"), std::string::npos) << hit.message;

    const harness::CheckResult miss =
        harness::checkSweepArtifact(cachedSweepDoc("rw", 0, 1, 1, 0));
    EXPECT_TRUE(miss.ok) << miss.message;
}

TEST(JsonCheckCache, ExpectedHitsRequireABlock)
{
    // A sweep run without --cache emits no block; asking the checker to
    // assert a hit count against it must fail loudly (the CI warm-run
    // gate depends on this).
    Json doc = cachedSweepDoc("rw", 1, 0, 0, 0);
    doc = mutated(doc, "\"cache\":", "\"cache_disabled\":");
    EXPECT_TRUE(harness::checkSweepArtifact(doc, 1).ok);
    const harness::CheckResult r = harness::checkSweepArtifact(doc, 1, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("--cache"), std::string::npos) << r.message;
}

TEST(JsonCheckCache, HitCountMismatchFails)
{
    const harness::CheckResult r =
        harness::checkSweepArtifact(cachedSweepDoc("rw", 0, 1, 1, 0),
                                    1, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("expected 1"), std::string::npos)
        << r.message;
}

TEST(JsonCheckCache, CounterInvariantsAreEnforced)
{
    // hits + misses + bypassed must equal the point count.
    const harness::CheckResult sum =
        harness::checkSweepArtifact(cachedSweepDoc("rw", 1, 1, 0, 0));
    EXPECT_FALSE(sum.ok);
    EXPECT_NE(sum.message.find("sum"), std::string::npos) << sum.message;

    // stored is a subset of misses.
    const harness::CheckResult stored =
        harness::checkSweepArtifact(cachedSweepDoc("rw", 0, 1, 2, 0));
    EXPECT_FALSE(stored.ok);
    EXPECT_NE(stored.message.find("stored"), std::string::npos)
        << stored.message;

    // A read-only cache cannot have written records.
    const harness::CheckResult ro =
        harness::checkSweepArtifact(cachedSweepDoc("ro", 0, 1, 1, 0));
    EXPECT_FALSE(ro.ok);
    EXPECT_NE(ro.message.find("read-only"), std::string::npos)
        << ro.message;

    // "off" never emits a block, so a block claiming it is malformed.
    const harness::CheckResult off =
        harness::checkSweepArtifact(cachedSweepDoc("off", 0, 1, 0, 0));
    EXPECT_FALSE(off.ok);
    EXPECT_NE(off.message.find("mode"), std::string::npos) << off.message;

    // Negative and missing counters are malformed.
    const harness::CheckResult neg =
        harness::checkSweepArtifact(cachedSweepDoc("rw", -1, 2, 0, 0));
    EXPECT_FALSE(neg.ok);
    const Json dropped = mutated(cachedSweepDoc("rw", 1, 0, 0, 0),
                                 "\"bypassed\":0", "\"bypassed\":null");
    const harness::CheckResult miss =
        harness::checkSweepArtifact(dropped);
    EXPECT_FALSE(miss.ok);
    EXPECT_NE(miss.message.find("bypassed"), std::string::npos)
        << miss.message;
}

TEST(JsonCheckCache, ComparePointsAcceptsOnlyByteIdenticalArrays)
{
    // Cold (all misses) vs warm (all hits): cache blocks differ, the
    // points arrays must not.
    const Json cold = cachedSweepDoc("rw", 0, 1, 1, 0);
    const Json warm = cachedSweepDoc("rw", 1, 0, 0, 0);
    const harness::CheckResult same =
        harness::compareSweepPoints(cold, warm);
    EXPECT_TRUE(same.ok) << same.message;
    EXPECT_NE(same.message.find("byte-identical"), std::string::npos);

    // A single diverging stat is caught and named.
    const Json drifted =
        mutated(warm, "\"cycles\":100", "\"cycles\":101");
    const harness::CheckResult diff =
        harness::compareSweepPoints(cold, drifted);
    EXPECT_FALSE(diff.ok);
    EXPECT_NE(diff.message.find("p0"), std::string::npos) << diff.message;

    // Different benches must not be compared at all.
    const Json other = mutated(warm, "\"bench\":\"unit\"",
                               "\"bench\":\"other\"");
    const harness::CheckResult bench =
        harness::compareSweepPoints(cold, other);
    EXPECT_FALSE(bench.ok);
    EXPECT_NE(bench.message.find("bench"), std::string::npos)
        << bench.message;
}

// --- json_check: sweep config records ----------------------------------

TEST(JsonCheckSweep, ConfigMissingRecordKeyFails)
{
    const Json doc = cachedSweepDoc("rw", 0, 1, 1, 0);
    const harness::CheckResult r = harness::checkSweepArtifact(
        mutated(doc, "\"ddos_time_share\":false,", ""));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("lacks \"ddos_time_share\""),
              std::string::npos)
        << r.message;

    // The key list follows num_devices: a two-device record must carry
    // the link constants.
    const harness::CheckResult link = harness::checkSweepArtifact(
        mutated(doc, "\"num_devices\":1", "\"num_devices\":2"));
    EXPECT_FALSE(link.ok);
    EXPECT_NE(link.message.find("lacks \"link_latency\""),
              std::string::npos)
        << link.message;
}

TEST(JsonCheckSweep, ConfigCarryingIdleSkipFails)
{
    const harness::CheckResult r = harness::checkSweepArtifact(
        mutated(cachedSweepDoc("rw", 0, 1, 1, 0), "\"num_devices\":1",
                "\"num_devices\":1,\"idle_skip\":true"));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("\"idle_skip\""), std::string::npos)
        << r.message;
}

}  // namespace
}  // namespace bowsim
