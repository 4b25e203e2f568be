#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.hpp"
#include "src/harness/fingerprint.hpp"
#include "src/harness/result_cache.hpp"
#include "src/harness/sweep.hpp"
#include "src/sim/gpu.hpp"

/**
 * @file
 * The persistent result cache (docs/BENCH.md, "Result cache & resume"):
 * fingerprint stability and per-field sensitivity, the statsToJson /
 * statsFromJson inverse pair that cache records depend on, record
 * corruption and crash-leftover tolerance, ro vs rw semantics, and
 * resume-journal replay through the sweep runner.
 */

namespace bowsim {
namespace {

namespace fs = std::filesystem;

using harness::CacheCounters;
using harness::CacheMode;
using harness::FingerprintHasher;
using harness::Json;
using harness::PointKey;
using harness::ResultCache;
using harness::ResumeJournal;
using harness::SweepPoint;
using harness::SweepResult;
using harness::SweepRunner;

/** Fresh directory under the test temp root, removed on destruction. */
struct TempDir {
    fs::path path;

    explicit TempDir(const std::string &name)
        : path(fs::path(::testing::TempDir()) / ("bowsim_" + name))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

void
writeFile(const fs::path &p, const std::string &text)
{
    std::ofstream out(p);
    out << text;
}

/** A cheap registry point: TB at tiny scale on a two-core GTX480. */
SweepPoint
registryPoint(const std::string &id = "TB/GTO", bool bows = false)
{
    SweepPoint p;
    p.id = id;
    p.kernel = "TB";
    p.cfg = makeGtx480Config();
    p.cfg.numCores = 2;
    p.cfg.scheduler = SchedulerKind::GTO;
    p.cfg.bows.enabled = bows;
    p.scale = 0.05;
    return p;
}

/** The four-point sweep the runner tests share (matches
 *  test_sweep_runner's smallSweep, with ATM added for variety). */
std::vector<SweepPoint>
smallSweep()
{
    std::vector<SweepPoint> points;
    for (const char *kernel : {"TB", "ATM"}) {
        for (bool bows : {false, true}) {
            SweepPoint p = registryPoint(
                std::string(kernel) + (bows ? "/BOWS" : "/GTO"), bows);
            p.kernel = kernel;
            points.push_back(std::move(p));
        }
    }
    return points;
}

/**
 * A KernelStats with every field — including every optional block —
 * set to a distinct, recognizable value. Doubles are exactly
 * representable so dump/parse round trips are bit-exact.
 */
KernelStats
fullStats()
{
    KernelStats s;
    s.kernel = "RT";
    s.cycles = 123456;
    s.warpInstructions = 1001;
    s.threadInstructions = 31002;
    s.syncThreadInstructions = 4103;
    s.sibInstructions = 77;
    s.activeLaneSum = 29004;
    s.l1Accesses = 505;
    s.l1Hits = 404;
    s.l1Misses = 101;
    s.sharedAccesses = 33;
    s.syncMemTransactions = 21;
    s.mem.l2Accesses = 99;
    s.mem.l2Hits = 66;
    s.mem.l2Misses = 33;
    s.mem.dramAccesses = 44;
    s.mem.dramRowActivations = 11;
    s.mem.atomics = 55;
    s.mem.atomicWaitCycles = 202;
    s.mem.icntPackets = 88;
    s.outcomes.lockSuccess = 10;
    s.outcomes.interWarpFail = 20;
    s.outcomes.intraWarpFail = 30;
    s.outcomes.waitExitSuccess = 40;
    s.outcomes.waitExitFail = 50;
    s.residentWarpCycles = 8000;
    s.backedOffWarpCycles = 1200;
    s.spinningWarpCycles = 340;
    s.delayLimitCycleSum = 5000;
    s.smCycles = 2500;
    s.stallWarpsPerSm = 2;
    s.stallCounts.resize(2 * 2 * trace::kNumStallCauses);
    for (std::size_t i = 0; i < s.stallCounts.size(); ++i)
        s.stallCounts[i] = i + 1;
    s.unitsPerSm = 2;
    s.unitIssues = {7, 8, 9, 10};
    s.peakResidentPerSm = {12, 14};
    s.energy.warpInstructions = 1001;
    s.energy.laneAluOps = 24000;
    s.energy.rfReadLanes = 48000;
    s.energy.rfWriteLanes = 23000;
    s.energy.sharedAccesses = 33;
    s.energy.l1Accesses = 505;
    s.energy.l2Accesses = 99;
    s.energy.dramAccesses = 44;
    s.energy.icntPackets = 88;
    s.energy.atomicOps = 55;
    s.energyNj = 123.4375;
    s.staticEnergyNj = 7.25;
    s.ddos.trueBranches = 10;
    s.ddos.trueDetected = 9;
    s.ddos.falseBranches = 8;
    s.ddos.falseDetected = 1;
    s.ddos.dprTrueSum = 2.5;
    s.ddos.dprFalseSum = 0.5;
    return s;
}

// --- statsFromJson: the inverse the cache's correctness rests on ------

TEST(StatsJsonRoundTrip, EveryFieldSurvives)
{
    const KernelStats s = fullStats();
    const Json j = harness::statsToJson(s);
    const KernelStats t = harness::statsFromJson(j);

    EXPECT_EQ(t.kernel, s.kernel);
    EXPECT_EQ(t.cycles, s.cycles);
    EXPECT_EQ(t.warpInstructions, s.warpInstructions);
    EXPECT_EQ(t.threadInstructions, s.threadInstructions);
    EXPECT_EQ(t.syncThreadInstructions, s.syncThreadInstructions);
    EXPECT_EQ(t.sibInstructions, s.sibInstructions);
    EXPECT_EQ(t.activeLaneSum, s.activeLaneSum);
    EXPECT_EQ(t.l1Accesses, s.l1Accesses);
    EXPECT_EQ(t.l1Hits, s.l1Hits);
    EXPECT_EQ(t.l1Misses, s.l1Misses);
    EXPECT_EQ(t.sharedAccesses, s.sharedAccesses);
    EXPECT_EQ(t.syncMemTransactions, s.syncMemTransactions);
    EXPECT_EQ(t.mem.l2Accesses, s.mem.l2Accesses);
    EXPECT_EQ(t.mem.l2Hits, s.mem.l2Hits);
    EXPECT_EQ(t.mem.l2Misses, s.mem.l2Misses);
    EXPECT_EQ(t.mem.dramAccesses, s.mem.dramAccesses);
    EXPECT_EQ(t.mem.dramRowActivations, s.mem.dramRowActivations);
    EXPECT_EQ(t.mem.atomics, s.mem.atomics);
    EXPECT_EQ(t.mem.atomicWaitCycles, s.mem.atomicWaitCycles);
    EXPECT_EQ(t.mem.icntPackets, s.mem.icntPackets);
    EXPECT_EQ(t.outcomes.lockSuccess, s.outcomes.lockSuccess);
    EXPECT_EQ(t.outcomes.interWarpFail, s.outcomes.interWarpFail);
    EXPECT_EQ(t.outcomes.intraWarpFail, s.outcomes.intraWarpFail);
    EXPECT_EQ(t.outcomes.waitExitSuccess, s.outcomes.waitExitSuccess);
    EXPECT_EQ(t.outcomes.waitExitFail, s.outcomes.waitExitFail);
    EXPECT_EQ(t.residentWarpCycles, s.residentWarpCycles);
    EXPECT_EQ(t.backedOffWarpCycles, s.backedOffWarpCycles);
    EXPECT_EQ(t.spinningWarpCycles, s.spinningWarpCycles);
    EXPECT_EQ(t.delayLimitCycleSum, s.delayLimitCycleSum);
    EXPECT_EQ(t.smCycles, s.smCycles);
    EXPECT_EQ(t.stallWarpsPerSm, s.stallWarpsPerSm);
    EXPECT_EQ(t.stallCounts, s.stallCounts);
    EXPECT_EQ(t.unitsPerSm, s.unitsPerSm);
    EXPECT_EQ(t.unitIssues, s.unitIssues);
    EXPECT_EQ(t.peakResidentPerSm, s.peakResidentPerSm);
    EXPECT_EQ(t.energy.warpInstructions, s.energy.warpInstructions);
    EXPECT_EQ(t.energy.laneAluOps, s.energy.laneAluOps);
    EXPECT_EQ(t.energy.rfReadLanes, s.energy.rfReadLanes);
    EXPECT_EQ(t.energy.rfWriteLanes, s.energy.rfWriteLanes);
    EXPECT_EQ(t.energy.sharedAccesses, s.energy.sharedAccesses);
    EXPECT_EQ(t.energy.l1Accesses, s.energy.l1Accesses);
    EXPECT_EQ(t.energy.l2Accesses, s.energy.l2Accesses);
    EXPECT_EQ(t.energy.dramAccesses, s.energy.dramAccesses);
    EXPECT_EQ(t.energy.icntPackets, s.energy.icntPackets);
    EXPECT_EQ(t.energy.atomicOps, s.energy.atomicOps);
    EXPECT_EQ(t.energyNj, s.energyNj);
    EXPECT_EQ(t.staticEnergyNj, s.staticEnergyNj);
    EXPECT_EQ(t.ddos.trueBranches, s.ddos.trueBranches);
    EXPECT_EQ(t.ddos.trueDetected, s.ddos.trueDetected);
    EXPECT_EQ(t.ddos.falseBranches, s.ddos.falseBranches);
    EXPECT_EQ(t.ddos.falseDetected, s.ddos.falseDetected);
    EXPECT_EQ(t.ddos.dprTrueSum, s.ddos.dprTrueSum);
    EXPECT_EQ(t.ddos.dprFalseSum, s.ddos.dprFalseSum);

    // Derived fields recompute from the raws, so the re-dump is
    // byte-identical — which is what makes a cache hit
    // indistinguishable from a simulation in the artifact.
    EXPECT_EQ(harness::statsToJson(t).dump(), j.dump());

    // And it survives an actual parse from text, not just the in-memory
    // document (the cache reads records off disk).
    const KernelStats u = harness::statsFromJson(Json::parse(j.dump()));
    EXPECT_EQ(harness::statsToJson(u).dump(), j.dump());
}

TEST(StatsJsonRoundTrip, MinimalStatsOmitOptionalBlocks)
{
    KernelStats s;
    s.kernel = "TB";
    s.cycles = 10;
    s.warpInstructions = 5;

    const Json j = harness::statsToJson(s);
    EXPECT_FALSE(j.has("stall"));
    EXPECT_FALSE(j.has("stall_table"));
    EXPECT_FALSE(j.has("unit_issues"));
    EXPECT_FALSE(j.has("ipc_est"));
    EXPECT_FALSE(j.has("sampled_windows"));
    EXPECT_FALSE(j.at("sched").has("spinning_warp_cycles"));
    EXPECT_FALSE(j.at("sched").has("peak_resident_per_sm"));

    const KernelStats t = harness::statsFromJson(j);
    EXPECT_EQ(harness::statsToJson(t).dump(), j.dump());
    EXPECT_TRUE(t.stallCounts.empty());
    EXPECT_TRUE(t.unitIssues.empty());
    EXPECT_EQ(t.spinningWarpCycles, 0u);
}

TEST(StatsJsonRoundTrip, NonFiniteValuesAreFatal)
{
    // A NaN/Inf statistic is a simulator bug; emitting it would produce
    // a record the cache would later read back as corrupt. Fail at the
    // source instead.
    KernelStats nan_energy = fullStats();
    nan_energy.energyNj = std::nan("");
    EXPECT_THROW(harness::statsToJson(nan_energy), FatalError);

    KernelStats inf_static = fullStats();
    inf_static.staticEnergyNj = INFINITY;
    EXPECT_THROW(harness::statsToJson(inf_static), FatalError);

    KernelStats nan_dpr = fullStats();
    nan_dpr.ddos.dprFalseSum = -std::nan("");
    EXPECT_THROW(harness::statsToJson(nan_dpr), FatalError);
}

/** First-occurrence textual surgery (same idiom as test_json.cpp). */
Json
mutated(const Json &doc, const std::string &from, const std::string &to)
{
    std::string text = doc.dump();
    const std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    return Json::parse(text);
}

TEST(StatsJsonRoundTrip, ParseRejectsContradictoryRecords)
{
    const Json j = harness::statsToJson(fullStats());

    // Missing required field.
    EXPECT_THROW(
        harness::statsFromJson(mutated(j, "\"cycles\":123456,", "")),
        FatalError);
    // An explicit zero for a presence-gated gauge.
    EXPECT_THROW(
        harness::statsFromJson(mutated(j, "\"spinning_warp_cycles\":340",
                                       "\"spinning_warp_cycles\":0")),
        FatalError);
}

// --- fingerprints ------------------------------------------------------

TEST(Fingerprint, StableAcrossCallsAndExcludedKnobs)
{
    const SweepPoint p = registryPoint();
    const PointKey a = harness::fingerprintPoint(p);
    const PointKey b = harness::fingerprintPoint(p);
    ASSERT_TRUE(a.cacheable) << a.reason;
    EXPECT_EQ(a.hash.size(), 64u);
    EXPECT_EQ(a.hash, b.hash);

    // The contractual execution knobs (docs/PERF.md) must not move the
    // key: results are byte-identical across them, so caching across
    // them is exactly the point. Each knob is mutated on its own so a
    // regression names the offending field.
    {
        SweepPoint knobs = p;
        knobs.cfg.idleSkip = !knobs.cfg.idleSkip;
        EXPECT_EQ(harness::fingerprintPoint(knobs).hash, a.hash)
            << "idleSkip";
    }
    {
        SweepPoint knobs = p;
        knobs.cfg.metricsInterval = 12345;
        EXPECT_EQ(harness::fingerprintPoint(knobs).hash, a.hash)
            << "metricsInterval";
    }
    // And both together.
    SweepPoint knobs = p;
    knobs.cfg.idleSkip = !knobs.cfg.idleSkip;
    knobs.cfg.metricsInterval = 12345;
    EXPECT_EQ(harness::fingerprintPoint(knobs).hash, a.hash);
}

TEST(Fingerprint, EveryResultRelevantConfigFieldChangesKey)
{
    using Mut = std::pair<const char *, void (*)(GpuConfig &)>;
    // One mutation per hashed GpuConfig field. If hashConfig ever skips
    // one of these, two configs that simulate differently would share a
    // cache record — the stale-result hazard this suite exists to catch.
    const std::vector<Mut> muts = {
        {"name", [](GpuConfig &c) { c.name = "OTHER"; }},
        {"numCores", [](GpuConfig &c) { c.numCores = 3; }},
        {"maxThreadsPerCore",
         [](GpuConfig &c) { c.maxThreadsPerCore = 1024; }},
        {"maxCtasPerCore", [](GpuConfig &c) { c.maxCtasPerCore = 4; }},
        {"numRegsPerCore", [](GpuConfig &c) { c.numRegsPerCore = 16384; }},
        {"sharedMemPerCore",
         [](GpuConfig &c) { c.sharedMemPerCore = 96 * 1024; }},
        {"numSchedulersPerCore",
         [](GpuConfig &c) { c.numSchedulersPerCore = 4; }},
        {"scheduler",
         [](GpuConfig &c) { c.scheduler = SchedulerKind::LRR; }},
        {"gtoRotatePeriod",
         [](GpuConfig &c) { c.gtoRotatePeriod = 60000; }},
        {"bows.enabled",
         [](GpuConfig &c) { c.bows.enabled = !c.bows.enabled; }},
        {"bows.deprioritize",
         [](GpuConfig &c) { c.bows.deprioritize = !c.bows.deprioritize; }},
        {"bows.delayLimit", [](GpuConfig &c) { c.bows.delayLimit = 123; }},
        {"bows.adaptive",
         [](GpuConfig &c) { c.bows.adaptive = !c.bows.adaptive; }},
        {"bows.window", [](GpuConfig &c) { c.bows.window = 2000; }},
        {"bows.delayStep", [](GpuConfig &c) { c.bows.delayStep = 125; }},
        {"bows.minLimit", [](GpuConfig &c) { c.bows.minLimit = 10; }},
        {"bows.maxLimit", [](GpuConfig &c) { c.bows.maxLimit = 5000; }},
        {"bows.frac1", [](GpuConfig &c) { c.bows.frac1 = 0.25; }},
        {"bows.frac2", [](GpuConfig &c) { c.bows.frac2 = 0.75; }},
        {"ddos.enabled",
         [](GpuConfig &c) { c.ddos.enabled = !c.ddos.enabled; }},
        {"ddos.hash", [](GpuConfig &c) { c.ddos.hash = HashKind::Modulo; }},
        {"ddos.hashBits", [](GpuConfig &c) { c.ddos.hashBits = 4; }},
        {"ddos.historyLength",
         [](GpuConfig &c) { c.ddos.historyLength = 16; }},
        {"ddos.confidenceThreshold",
         [](GpuConfig &c) { c.ddos.confidenceThreshold = 2; }},
        {"ddos.sibTableEntries",
         [](GpuConfig &c) { c.ddos.sibTableEntries = 32; }},
        {"ddos.timeShare",
         [](GpuConfig &c) { c.ddos.timeShare = !c.ddos.timeShare; }},
        {"ddos.timeShareEpoch",
         [](GpuConfig &c) { c.ddos.timeShareEpoch = 500; }},
        {"spinDetect",
         [](GpuConfig &c) { c.spinDetect = SpinDetect::Oracle; }},
        {"aluLatency", [](GpuConfig &c) { c.aluLatency = 8; }},
        {"mulDivLatency", [](GpuConfig &c) { c.mulDivLatency = 32; }},
        {"sharedMemLatency", [](GpuConfig &c) { c.sharedMemLatency = 48; }},
        {"l1d.sizeBytes",
         [](GpuConfig &c) { c.l1d.sizeBytes = 32 * 1024; }},
        {"l1d.ways", [](GpuConfig &c) { c.l1d.ways = 8; }},
        {"l1d.lineBytes", [](GpuConfig &c) { c.l1d.lineBytes = 64; }},
        {"l1d.mshrs", [](GpuConfig &c) { c.l1d.mshrs = 64; }},
        {"l2.sizeBytes",
         [](GpuConfig &c) { c.l2.sizeBytes = 128 * 1024; }},
        {"l2.ways", [](GpuConfig &c) { c.l2.ways = 16; }},
        {"l2.lineBytes", [](GpuConfig &c) { c.l2.lineBytes = 64; }},
        {"l2.mshrs", [](GpuConfig &c) { c.l2.mshrs = 128; }},
        {"numL2Banks", [](GpuConfig &c) { c.numL2Banks = 8; }},
        {"l1HitLatency", [](GpuConfig &c) { c.l1HitLatency = 30; }},
        {"l2HitLatency", [](GpuConfig &c) { c.l2HitLatency = 100; }},
        {"icntLatency", [](GpuConfig &c) { c.icntLatency = 30; }},
        {"dramLatency", [](GpuConfig &c) { c.dramLatency = 200; }},
        {"dramServicePeriod",
         [](GpuConfig &c) { c.dramServicePeriod = 8; }},
        {"atomicServicePeriod",
         [](GpuConfig &c) { c.atomicServicePeriod = 8; }},
        {"numDevices", [](GpuConfig &c) { c.numDevices = 2; }},
        {"linkLatency", [](GpuConfig &c) { c.linkLatency = 1400; }},
        {"linkServicePeriod",
         [](GpuConfig &c) { c.linkServicePeriod = 8; }},
        {"switchLatency", [](GpuConfig &c) { c.switchLatency = 50; }},
        {"coreClockMhz", [](GpuConfig &c) { c.coreClockMhz = 1000.0; }},
        {"watchdogCycles",
         [](GpuConfig &c) { c.watchdogCycles = 100'000'000; }},
        {"collectStallBreakdown",
         [](GpuConfig &c) {
             c.collectStallBreakdown = !c.collectStallBreakdown;
         }},
        {"collectSpinCycles",
         [](GpuConfig &c) { c.collectSpinCycles = !c.collectSpinCycles; }},
        {"execMode",
         [](GpuConfig &c) { c.execMode = ExecMode::Functional; }},
    };

    const SweepPoint base = registryPoint();
    const std::string base_hash = harness::fingerprintPoint(base).hash;
    std::set<std::string> hashes{base_hash};
    for (const Mut &m : muts) {
        SweepPoint p = base;
        m.second(p.cfg);
        const PointKey key = harness::fingerprintPoint(p);
        ASSERT_TRUE(key.cacheable) << m.first;
        EXPECT_NE(key.hash, base_hash)
            << "mutating " << m.first << " did not change the key";
        hashes.insert(key.hash);
    }
    // All mutations land on mutually distinct keys, not just keys that
    // differ from the baseline.
    EXPECT_EQ(hashes.size(), muts.size() + 1);
}

TEST(Fingerprint, KernelScaleAndSaltChangeKey)
{
    const SweepPoint base = registryPoint();
    const std::string base_hash = harness::fingerprintPoint(base).hash;

    SweepPoint other_kernel = base;
    other_kernel.kernel = "ATM";
    EXPECT_NE(harness::fingerprintPoint(other_kernel).hash, base_hash);

    SweepPoint other_scale = base;
    other_scale.scale = 0.1;
    EXPECT_NE(harness::fingerprintPoint(other_scale).hash, base_hash);

    // The id is a human label, not content: it must NOT move the key,
    // or renaming a sweep row would orphan its cached result.
    SweepPoint renamed = base;
    renamed.id = "renamed";
    EXPECT_EQ(harness::fingerprintPoint(renamed).hash, base_hash);
}

TEST(Fingerprint, OpaquePointsAreNotCacheable)
{
    SweepPoint unsalted = registryPoint();
    unsalted.gpuBody = [](Gpu &) { return KernelStats{}; };
    const PointKey uk = harness::fingerprintPoint(unsalted);
    EXPECT_FALSE(uk.cacheable);
    EXPECT_TRUE(uk.hash.empty());
    EXPECT_NE(uk.reason.find("salt"), std::string::npos) << uk.reason;

    SweepPoint unknown = registryPoint();
    unknown.kernel = "NO_SUCH_KERNEL";
    EXPECT_FALSE(harness::fingerprintPoint(unknown).cacheable);
}

TEST(Fingerprint, SaltedGpuBodyPointsKeyOnTheSalt)
{
    SweepPoint a = registryPoint();
    a.gpuBody = [](Gpu &) { return KernelStats{}; };
    a.cacheSalt = "prog-digest/i100";
    const PointKey ka = harness::fingerprintPoint(a);
    ASSERT_TRUE(ka.cacheable) << ka.reason;

    SweepPoint b = a;
    b.cacheSalt = "prog-digest/i200";
    const PointKey kb = harness::fingerprintPoint(b);
    ASSERT_TRUE(kb.cacheable);
    EXPECT_NE(ka.hash, kb.hash);

    // Config changes still matter for salted points.
    SweepPoint c = a;
    c.cfg.bows.enabled = !c.cfg.bows.enabled;
    EXPECT_NE(harness::fingerprintPoint(c).hash, ka.hash);
}

TEST(Fingerprint, HasherIsSelfDelimiting)
{
    // "ab" + "c" vs "a" + "bc": tagged length-prefixed encoding keeps
    // the digests apart even when the concatenated bytes agree.
    FingerprintHasher h1;
    h1.add("x", std::string("ab"));
    h1.add("y", std::string("c"));
    FingerprintHasher h2;
    h2.add("x", std::string("a"));
    h2.add("y", std::string("bc"));
    EXPECT_NE(h1.hex(), h2.hex());

    // Type confusion: the same numeric value as unsigned vs double.
    FingerprintHasher h3;
    h3.add("v", std::uint64_t{1});
    FingerprintHasher h4;
    h4.add("v", 1.0);
    EXPECT_NE(h3.hex(), h4.hex());
}

// --- the object store --------------------------------------------------

TEST(ResultCache, StoreThenLookupRoundTrips)
{
    TempDir td("cache_roundtrip");
    ResultCache cache(td.str(), CacheMode::ReadWrite);
    const std::string fp(64, 'a');
    const KernelStats s = fullStats();

    KernelStats out;
    EXPECT_FALSE(cache.lookup(fp, &out));
    cache.store(fp, "point-0", s);
    ASSERT_TRUE(cache.lookup(fp, &out));
    EXPECT_EQ(harness::statsToJson(out).dump(),
              harness::statsToJson(s).dump());
    EXPECT_TRUE(fs::exists(cache.recordPath(fp)));
}

TEST(ResultCache, ReadOnlyNeverCreatesOrWrites)
{
    TempDir td("cache_ro");
    const std::string dir = (td.path / "never_created").string();
    ResultCache cache(dir, CacheMode::ReadOnly);
    const std::string fp(64, 'b');

    KernelStats out;
    EXPECT_FALSE(cache.lookup(fp, &out));
    cache.store(fp, "point-0", fullStats());  // must be a no-op
    EXPECT_FALSE(cache.lookup(fp, &out));
    EXPECT_FALSE(fs::exists(dir));
}

TEST(ResultCache, ReadOnlyServesAPrepopulatedStore)
{
    TempDir td("cache_ro_hit");
    const std::string fp(64, 'c');
    {
        ResultCache rw(td.str(), CacheMode::ReadWrite);
        rw.store(fp, "point-0", fullStats());
    }
    ResultCache ro(td.str(), CacheMode::ReadOnly);
    KernelStats out;
    ASSERT_TRUE(ro.lookup(fp, &out));
    EXPECT_EQ(harness::statsToJson(out).dump(),
              harness::statsToJson(fullStats()).dump());
}

TEST(ResultCache, CrashLeftoverTempFileIsNotARecord)
{
    TempDir td("cache_crash");
    ResultCache cache(td.str(), CacheMode::ReadWrite);
    const std::string fp(64, 'd');
    // A writer that died mid-write leaves its partial bytes under the
    // temporary name — the record path itself never exists torn.
    writeFile(cache.recordPath(fp) + ".tmp.12345",
              "{\"cache_version\":1,\"fingerp");

    KernelStats out;
    EXPECT_FALSE(cache.lookup(fp, &out));
    cache.store(fp, "point-0", fullStats());
    EXPECT_TRUE(cache.lookup(fp, &out));
}

TEST(ResultCache, CorruptAndSkewedRecordsReadAsMisses)
{
    TempDir td("cache_corrupt");
    ResultCache cache(td.str(), CacheMode::ReadWrite);
    const KernelStats s = fullStats();
    KernelStats out;

    // Garbage bytes at the record path.
    const std::string fp1(64, 'e');
    writeFile(cache.recordPath(fp1), "not json at all {{{");
    EXPECT_FALSE(cache.lookup(fp1, &out));
    // ...and rw recovery: the recomputed result overwrites the garbage.
    cache.store(fp1, "point-0", s);
    ASSERT_TRUE(cache.lookup(fp1, &out));
    EXPECT_EQ(harness::statsToJson(out).dump(),
              harness::statsToJson(s).dump());

    // A structurally valid record from an incompatible schema version.
    const std::string fp2(64, 'f');
    Json skew = Json::object();
    skew.set("cache_version", harness::kResultSchemaVersion + 1);
    skew.set("fingerprint", fp2);
    skew.set("id", "point-0");
    skew.set("stats", harness::statsToJson(s));
    writeFile(cache.recordPath(fp2), skew.dump());
    EXPECT_FALSE(cache.lookup(fp2, &out));

    // A record whose embedded fingerprint does not echo its name.
    const std::string fp3(64, '0');
    Json echo = Json::object();
    echo.set("cache_version", harness::kResultSchemaVersion);
    echo.set("fingerprint", std::string(64, '1'));
    echo.set("id", "point-0");
    echo.set("stats", harness::statsToJson(s));
    writeFile(cache.recordPath(fp3), echo.dump());
    EXPECT_FALSE(cache.lookup(fp3, &out));

    // A record whose stats block is missing fields.
    const std::string fp4(64, '2');
    Json bad = Json::object();
    bad.set("cache_version", harness::kResultSchemaVersion);
    bad.set("fingerprint", fp4);
    bad.set("id", "point-0");
    bad.set("stats", Json::object());
    writeFile(cache.recordPath(fp4), bad.dump());
    EXPECT_FALSE(cache.lookup(fp4, &out));
}

TEST(ResultCache, ModeParsingAndNames)
{
    CacheMode m = CacheMode::Off;
    EXPECT_TRUE(harness::parseCacheMode("off", &m));
    EXPECT_EQ(m, CacheMode::Off);
    EXPECT_TRUE(harness::parseCacheMode("ro", &m));
    EXPECT_EQ(m, CacheMode::ReadOnly);
    EXPECT_TRUE(harness::parseCacheMode("rw", &m));
    EXPECT_EQ(m, CacheMode::ReadWrite);
    EXPECT_FALSE(harness::parseCacheMode("readwrite", &m));
    EXPECT_FALSE(harness::parseCacheMode("", &m));
    EXPECT_STREQ(harness::toString(CacheMode::Off), "off");
    EXPECT_STREQ(harness::toString(CacheMode::ReadOnly), "ro");
    EXPECT_STREQ(harness::toString(CacheMode::ReadWrite), "rw");
}

// --- the resume journal ------------------------------------------------

TEST(ResumeJournal, RecordsReplayOnResume)
{
    TempDir td("journal_replay");
    const std::string path = (td.path / "sweep.jsonl").string();
    const KernelStats s = fullStats();
    {
        ResumeJournal j(path, /*resume=*/false, /*writable=*/true);
        EXPECT_EQ(j.loadedEntries(), 0u);
        j.record("p0", "key0", s);
        j.record("p1", "key1", s);
    }
    ResumeJournal j(path, /*resume=*/true, /*writable=*/true);
    EXPECT_EQ(j.loadedEntries(), 2u);
    KernelStats out;
    ASSERT_TRUE(j.lookup("p0", "key0", &out));
    EXPECT_EQ(harness::statsToJson(out).dump(),
              harness::statsToJson(s).dump());
    // Key mismatch (the sweep definition changed) re-simulates.
    EXPECT_FALSE(j.lookup("p0", "other-key", &out));
    EXPECT_FALSE(j.lookup("p2", "key0", &out));
}

TEST(ResumeJournal, ToleratesATornFinalLine)
{
    TempDir td("journal_torn");
    const std::string path = (td.path / "sweep.jsonl").string();
    {
        ResumeJournal j(path, false, true);
        j.record("p0", "key0", fullStats());
        j.record("p1", "key1", fullStats());
    }
    // A crash mid-append leaves a truncated last line.
    std::ofstream(path, std::ios::app) << "{\"id\":\"p2\",\"key\":\"ke";
    ResumeJournal j(path, true, true);
    EXPECT_EQ(j.loadedEntries(), 2u);
    KernelStats out;
    EXPECT_TRUE(j.lookup("p1", "key1", &out));
    EXPECT_FALSE(j.lookup("p2", "key2", &out));
}

TEST(ResumeJournal, FreshRunDiscardsThePreviousJournal)
{
    TempDir td("journal_fresh");
    const std::string path = (td.path / "sweep.jsonl").string();
    {
        ResumeJournal j(path, false, true);
        j.record("p0", "key0", fullStats());
    }
    // resume=false: the stale journal must not leak into this run.
    ResumeJournal fresh(path, false, true);
    EXPECT_EQ(fresh.loadedEntries(), 0u);
    KernelStats out;
    EXPECT_FALSE(fresh.lookup("p0", "key0", &out));
}

// --- through the sweep runner ------------------------------------------

TEST(CacheIntegration, WarmRunServesEveryPointBitIdentically)
{
    TempDir td("integration_warm");
    const std::vector<SweepPoint> points = smallSweep();

    ResultCache cold(td.str(), CacheMode::ReadWrite);
    SweepRunner cold_runner(2);
    cold_runner.setCache(&cold);
    const std::vector<SweepResult> first = cold_runner.run(points);
    const CacheCounters cc = cold.counters();
    EXPECT_EQ(cc.hits, 0u);
    EXPECT_EQ(cc.misses, points.size());
    EXPECT_EQ(cc.stored, points.size());
    EXPECT_EQ(cc.bypassed, 0u);

    ResultCache warm(td.str(), CacheMode::ReadWrite);
    SweepRunner warm_runner(2);
    warm_runner.setCache(&warm);
    const std::vector<SweepResult> second = warm_runner.run(points);
    const CacheCounters wc = warm.counters();
    EXPECT_EQ(wc.hits, points.size());
    EXPECT_EQ(wc.misses, 0u);
    EXPECT_EQ(wc.stored, 0u);

    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(first[i].ok);
        ASSERT_TRUE(second[i].ok);
        EXPECT_EQ(first[i].source, SweepResult::Source::Simulated);
        EXPECT_EQ(second[i].source, SweepResult::Source::CacheHit);
        EXPECT_EQ(harness::statsToJson(second[i].stats).dump(),
                  harness::statsToJson(first[i].stats).dump())
            << points[i].id;
    }

    // The artifact's cache block reflects the counters, and cold/warm
    // points arrays agree byte-for-byte.
    const Json cold_doc =
        harness::sweepToJson("unit", 2, points, first, &cold);
    const Json warm_doc =
        harness::sweepToJson("unit", 2, points, second, &warm);
    EXPECT_EQ(warm_doc.at("cache").at("hits").asInt(),
              static_cast<std::int64_t>(points.size()));
    EXPECT_EQ(cold_doc.at("points").dump(), warm_doc.at("points").dump());
}

TEST(CacheIntegration, ReadOnlyMissSimulatesWithoutStoring)
{
    TempDir td("integration_ro");
    std::vector<SweepPoint> points = {registryPoint()};

    ResultCache ro(td.str(), CacheMode::ReadOnly);
    SweepRunner runner(1);
    runner.setCache(&ro);
    const std::vector<SweepResult> results = runner.run(points);
    ASSERT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].source, SweepResult::Source::Simulated);
    const CacheCounters c = ro.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stored, 0u);
    EXPECT_FALSE(fs::exists(td.path / "objects"));
}

TEST(CacheIntegration, SideOutputsAndOpaquePointsBypass)
{
    TempDir td("integration_bypass");
    std::vector<SweepPoint> points;
    SweepPoint traced = registryPoint("traced");
    traced.tracePath = (td.path / "trace.json").string();
    points.push_back(traced);
    SweepPoint opaque = registryPoint("opaque");
    opaque.gpuBody = [](Gpu &) {
        KernelStats s;
        s.kernel = "custom";
        s.cycles = 42;
        return s;
    };
    points.push_back(opaque);

    ResultCache cache(td.str(), CacheMode::ReadWrite);
    SweepRunner runner(1);
    runner.setCache(&cache);
    const std::vector<SweepResult> results = runner.run(points);
    ASSERT_TRUE(results[0].ok);
    ASSERT_TRUE(results[1].ok);
    const CacheCounters c = cache.counters();
    EXPECT_EQ(c.bypassed, 2u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.stored, 0u);
    // The side output itself is still produced.
    EXPECT_TRUE(fs::exists(traced.tracePath));
}

TEST(CacheIntegration, ResumeReplaysOnlyCompletedPoints)
{
    TempDir td("integration_resume");
    const std::vector<SweepPoint> points = smallSweep();

    // Interrupted run: only the first two points completed.
    {
        ResultCache cache(td.str(), CacheMode::ReadWrite);
        ResumeJournal journal(cache.journalPath("unit"), false, true);
        SweepRunner runner(1);
        runner.setCache(&cache);
        runner.setJournal(&journal);
        const std::vector<SweepPoint> half(points.begin(),
                                           points.begin() + 2);
        runner.run(half);
    }

    ResultCache cache(td.str(), CacheMode::ReadWrite);
    ResumeJournal journal(cache.journalPath("unit"), true, true);
    EXPECT_EQ(journal.loadedEntries(), 2u);
    SweepRunner runner(1);
    runner.setCache(&cache);
    runner.setJournal(&journal);
    const std::vector<SweepResult> results = runner.run(points);
    ASSERT_EQ(results.size(), points.size());
    EXPECT_EQ(results[0].source, SweepResult::Source::Resumed);
    EXPECT_EQ(results[1].source, SweepResult::Source::Resumed);
    EXPECT_EQ(results[2].source, SweepResult::Source::Simulated);
    EXPECT_EQ(results[3].source, SweepResult::Source::Simulated);
    const CacheCounters c = cache.counters();
    EXPECT_EQ(c.resumed, 2u);
    EXPECT_EQ(c.misses, 2u);
    EXPECT_EQ(c.stored, 2u);
    EXPECT_EQ(c.hits + c.misses + c.bypassed + c.resumed, points.size());
}

TEST(CacheIntegration, NonCacheablePointsStillResumeViaWeakKey)
{
    TempDir td("integration_weak");
    SweepPoint opaque = registryPoint("opaque");
    opaque.gpuBody = [](Gpu &) {
        KernelStats s;
        s.kernel = "custom";
        s.cycles = 42;
        return s;
    };
    const std::vector<SweepPoint> points = {opaque};

    {
        ResultCache cache(td.str(), CacheMode::ReadWrite);
        ResumeJournal journal(cache.journalPath("unit"), false, true);
        SweepRunner runner(1);
        runner.setCache(&cache);
        runner.setJournal(&journal);
        const std::vector<SweepResult> first = runner.run(points);
        ASSERT_TRUE(first[0].ok);
        // Simulated (the object store cannot key it)...
        EXPECT_EQ(cache.counters().bypassed, 1u);
        EXPECT_EQ(cache.counters().stored, 0u);
    }
    // ...but journaled under the weak (config, id, scale) key, so a
    // resumed sweep does not redo it.
    ResultCache cache(td.str(), CacheMode::ReadWrite);
    ResumeJournal journal(cache.journalPath("unit"), true, true);
    EXPECT_EQ(journal.loadedEntries(), 1u);
    SweepRunner runner(1);
    runner.setCache(&cache);
    runner.setJournal(&journal);
    const std::vector<SweepResult> again = runner.run(points);
    ASSERT_TRUE(again[0].ok);
    EXPECT_EQ(again[0].source, SweepResult::Source::Resumed);
    EXPECT_EQ(again[0].stats.cycles, 42u);
    EXPECT_EQ(cache.counters().resumed, 1u);
}

TEST(CacheIntegration, FailedPointsAreNeitherStoredNorJournaled)
{
    TempDir td("integration_fail");
    SweepPoint doomed = registryPoint("doomed");
    doomed.cfg.watchdogCycles = 10;  // spinning kernel cannot finish
    const std::vector<SweepPoint> points = {doomed};

    {
        ResultCache cache(td.str(), CacheMode::ReadWrite);
        ResumeJournal journal(cache.journalPath("unit"), false, true);
        SweepRunner runner(1);
        runner.setCache(&cache);
        runner.setJournal(&journal);
        const std::vector<SweepResult> results = runner.run(points);
        ASSERT_FALSE(results[0].ok);
        EXPECT_EQ(cache.counters().stored, 0u);
    }
    ResumeJournal journal(ResultCache(td.str(), CacheMode::ReadWrite)
                              .journalPath("unit"),
                          true, true);
    EXPECT_EQ(journal.loadedEntries(), 0u);
}

}  // namespace
}  // namespace bowsim
