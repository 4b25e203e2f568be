#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/fingerprint.hpp"
#include "src/harness/litmus.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/hashtable.hpp"
#include "src/kernels/registry.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sim/gpu.hpp"
#include "src/syncprof/syncprof.hpp"
#include "src/trace/ring_recorder.hpp"

/**
 * Golden-stats regression tests (labeled `slow`): cycle counts and
 * synchronization outcomes for HT and ATM pinned at an exact
 * configuration, plus SHA-256 digests of whole runs (every stats field
 * and the final memory image) for every registry kernel in cycle and in
 * functional mode, TwoLevel and arbitration-variant runs, the hashtable
 * shapes of the contention figures, one traced run, two-device runs, two
 * sync reports and four metrics series, and the self-delimiting
 * encoding of the hasher those digests go through. The simulator is
 * deterministic, so any drift here is a real behavior change — timing
 * model, scheduler, DDOS, BOWS, or side-effect order. When a change is intentional, re-measure and
 * update the constants in the same commit, and say why in the commit
 * message.
 *
 * Config: GTX480 model, 4 SMs, GTO, registry kernels at scale 0.25.
 */

namespace bowsim {
namespace {

struct Golden {
    const char *kernel;
    bool bows;
    Cycle cycles;
    std::uint64_t warpInstructions;
    std::uint64_t lockSuccess;
    std::uint64_t interWarpFail;
    std::uint64_t intraWarpFail;
};

/**
 * gtest's fallback printer dumps a struct's raw bytes, `kernel` pointer
 * included, into the listed test name; that address moves with every
 * build, so print the case instead.
 */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.kernel << " bows=" << g.bows;
}

const Golden kGolden[] = {
    {"HT", false, 42912, 27588, 3072, 38725, 352},
    {"HT", true, 52209, 20764, 3072, 33703, 352},
    {"ATM", false, 314299, 169255, 21460, 284005, 1846},
    {"ATM", true, 171181, 84529, 15012, 145520, 916},
};

class GoldenStats : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenStats, PinnedCyclesAndOutcomes)
{
    const Golden &g = GetParam();
    // Both fast-forward modes must land on the same golden values: the
    // skip is an equivalence-preserving transformation (docs/PERF.md),
    // so a divergence here localizes a horizon/accounting bug.
    for (bool idle_skip : {true, false}) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 4;
        cfg.scheduler = SchedulerKind::GTO;
        cfg.bows.enabled = g.bows;
        cfg.idleSkip = idle_skip;
        Gpu gpu(cfg);
        KernelStats s = makeBenchmark(g.kernel, 0.25)->run(gpu);

        const char *mode = idle_skip ? "idleSkip=on" : "idleSkip=off";
        EXPECT_EQ(s.cycles, g.cycles) << mode;
        EXPECT_EQ(s.warpInstructions, g.warpInstructions) << mode;
        EXPECT_EQ(s.outcomes.lockSuccess, g.lockSuccess) << mode;
        EXPECT_EQ(s.outcomes.interWarpFail, g.interWarpFail) << mode;
        EXPECT_EQ(s.outcomes.intraWarpFail, g.intraWarpFail) << mode;
        // Neither kernel uses wait-style loops at this scale.
        EXPECT_EQ(s.outcomes.waitExitSuccess, 0u) << mode;
        EXPECT_EQ(s.outcomes.waitExitFail, 0u) << mode;
    }
}

INSTANTIATE_TEST_SUITE_P(HtAtm, GoldenStats, ::testing::ValuesIn(kGolden),
                         [](const auto &info) {
                             return std::string(info.param.kernel) +
                                    (info.param.bows ? "_bows" : "_base");
                         });

TEST(GoldenStats, BowsReducesAtmSpinOverhead)
{
    // The paper's headline effect, pinned qualitatively: BOWS cuts
    // failed lock acquires on the contended account array.
    const Golden &base = kGolden[2];
    const Golden &bows = kGolden[3];
    EXPECT_LT(bows.interWarpFail, base.interWarpFail);
    EXPECT_LT(bows.cycles, base.cycles);
}

// --- litmus cells (docs/SYNC.md) --------------------------------------

/** One pinned litmus-matrix cell, run at the default litmus config. */
struct LitmusGolden {
    const char *name;  // test suffix
    sync::Primitive primitive;
    SchedulerKind scheduler;
    bool bows;
    harness::OccupancyLevel occupancy;
    harness::SyncOutcome outcome;
    Cycle cycles;
    std::uint64_t warpInstructions;
    std::uint64_t lockSuccess;
    std::uint64_t interWarpFail;
    std::uint64_t waitExitSuccess;
    std::uint64_t waitExitFail;
    std::uint64_t sibInstructions;
};

const LitmusGolden kLitmusGolden[] = {
    // The known-livelocking cell: over-subscribed TAS under pure GTO
    // with scarce atomic bandwidth — the spinners' CAS storm starves
    // the release; the watchdog kills a spin-dominated stream.
    {"tas_gto_base_over", sync::Primitive::TasLock, SchedulerKind::GTO,
     false, harness::OccupancyLevel::Over,
     harness::SyncOutcome::Livelocked, 3'000'000, 22829, 347, 5182, 0,
     0, 5065},
    // The same cell with BOWS enabled (only change): completes.
    {"tas_gto_bows_over", sync::Primitive::TasLock, SchedulerKind::GTO,
     true, harness::OccupancyLevel::Over,
     harness::SyncOutcome::Completed, 2'246'556, 20562, 512, 3334, 0,
     0, 3231},
    // A known-safe FIFO cell: every acquisition exits its wait exactly
    // once, the rest of the wait checks are counted spin retries.
    {"ticket_lrr_base_exact", sync::Primitive::TicketLock,
     SchedulerKind::LRR, false, harness::OccupancyLevel::Exact,
     harness::SyncOutcome::Completed, 206'073, 28263, 0, 0, 256, 7485,
     7241},
};

class LitmusGoldenStats
    : public ::testing::TestWithParam<LitmusGolden> {};

TEST_P(LitmusGoldenStats, PinnedOutcomeAndCounters)
{
    const LitmusGolden &g = GetParam();
    harness::LitmusOptions opts = harness::defaultLitmusOptions();
    opts.primitives = {g.primitive};
    opts.schedulers = {g.scheduler};
    opts.bowsModes = {g.bows};
    opts.occupancies = {g.occupancy};
    opts.devices = {1};  // the pinned counters are single-device
    const std::vector<harness::LitmusCell> cells =
        harness::buildLitmusCells(opts);
    ASSERT_EQ(cells.size(), 1u);
    // The classification consumes the abort record, which is
    // deterministic across the idle-skip fast-forward by contract.
    for (bool idle_skip : {true, false}) {
        GpuConfig cfg = cells[0].cfg;
        cfg.idleSkip = idle_skip;
        Gpu gpu(cfg);
        const harness::LitmusCellResult r =
            harness::runLitmusCell(cells[0], gpu);
        const char *mode = idle_skip ? "idleSkip=on" : "idleSkip=off";
        EXPECT_EQ(r.outcome, g.outcome) << mode;
        EXPECT_EQ(r.stats.cycles, g.cycles) << mode;
        EXPECT_EQ(r.stats.warpInstructions, g.warpInstructions) << mode;
        EXPECT_EQ(r.stats.outcomes.lockSuccess, g.lockSuccess) << mode;
        EXPECT_EQ(r.stats.outcomes.interWarpFail, g.interWarpFail)
            << mode;
        EXPECT_EQ(r.stats.outcomes.waitExitSuccess, g.waitExitSuccess)
            << mode;
        EXPECT_EQ(r.stats.outcomes.waitExitFail, g.waitExitFail)
            << mode;
        EXPECT_EQ(r.stats.sibInstructions, g.sibInstructions) << mode;
    }
}

INSTANTIATE_TEST_SUITE_P(LitmusCells, LitmusGoldenStats,
                         ::testing::ValuesIn(kLitmusGolden),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

// --- whole-run digests --------------------------------------------------

/**
 * Byte-level lock on the cycle loop: SHA-256 over every field statsToJson
 * emits (stall tables included) plus the final memory digest, so any
 * change to timing, ordering or accounting moves the digest. Each kernel
 * runs under LRR, GTO and CAWA, each with and without BOWS, on the
 * GTX480 model with 4 SMs at scale 0.25.
 */
struct GoldenDigest {
    const char *kernel;
    const char *sha256;
};

/** Prints the kernel only: a build-independent listed test name. */
void
PrintTo(const GoldenDigest &g, std::ostream *os)
{
    *os << g.kernel;
}

const GoldenDigest kGoldenDigests[] = {
    {"HT", "0bba091548c8b0044558f45e4b153e7ef9ea0262ca6bd006e99dce5803c9e645"},
    {"ATM", "40559e9bc42b8e5d8247714a982a685bf50bb5ba2a4381674624b56b0433343f"},
    {"TSP", "9cf6db135d3acdaa244c7ed0c549f7b2f4dde23b0b98425d1ed62f9894c5d76c"},
    {"NW1", "487913fec5d80ab56e42b382131728f63793d54eb659800986386bdb99331ad9"},
    {"NW2", "0f370dbe7ee69589f49fd1ebad943b24e6deadb20892fbf778fd4dc1d6daf203"},
    {"TB", "59c8ab847f72e96ab155119b1c5c61f8cf7aeb57243ab2543e982f613de0390e"},
    {"ST", "5b78cf5c73367dd71fa46f6e55b1cb32713c8c6a33f52504eb2a97787ba31859"},
    {"DS", "cdcb90f77ab3947eda0017e71f313f95a146f5bcba2e0561eb10417ce540bda9"},
    {"VEC", "495ffe7d882dd9464420249a9ca253b77143dec21f783ec54c58323b620b5dca"},
    {"KM", "09856783c28302afd050e2f4a90514369d23933cff63a7c7c44d8faf6aeeeda2"},
    {"MS", "12218f6567e13c0bc470947ba63fabe5cd84c8e58da7efe24e2ab82153edb5e9"},
    {"HL", "acc6024fb5105f4b374d304f07c535ff3b27d0285e99d082bef5ead4bd20aad2"},
    {"RED", "32eaf043a337f704539f1d1463e46fb718db2eb06ab34d1d76dc4560be012e59"},
    {"STEN",
     "3afb63f53e814600d971521a753bb90734e55961b4ee0617c126f4a708c262e7"},
};

TEST(Fingerprint, HasherIsSelfDelimiting)
{
    // "ab" + "c" vs "a" + "bc": tagged length-prefixed encoding keeps
    // the digests apart even when the concatenated bytes agree.
    harness::FingerprintHasher h1;
    h1.add("x", std::string("ab"));
    h1.add("y", std::string("c"));
    harness::FingerprintHasher h2;
    h2.add("x", std::string("a"));
    h2.add("y", std::string("bc"));
    EXPECT_NE(h1.hex(), h2.hex());

    // Type confusion: the same numeric value as unsigned vs double.
    harness::FingerprintHasher h3;
    h3.add("v", std::uint64_t{1});
    harness::FingerprintHasher h4;
    h4.add("v", 1.0);
    EXPECT_NE(h3.hex(), h4.hex());
}

/** Adds one finished run — its stats and final memory — to @p h. */
void
addRun(harness::FingerprintHasher &h, const KernelStats &s, const Gpu &gpu)
{
    h.add("stats", harness::statsToJson(s).dump());
    h.add("mem", gpu.mem().digest());
}

class GoldenDigests : public ::testing::TestWithParam<GoldenDigest> {};

TEST_P(GoldenDigests, StatsAndMemoryPinned)
{
    const GoldenDigest &g = GetParam();
    harness::FingerprintHasher h;
    for (SchedulerKind sched :
         {SchedulerKind::LRR, SchedulerKind::GTO, SchedulerKind::CAWA}) {
        for (bool bows : {false, true}) {
            GpuConfig cfg = makeGtx480Config();
            cfg.numCores = 4;
            cfg.scheduler = sched;
            cfg.bows.enabled = bows;
            cfg.collectStallBreakdown = true;
            Gpu gpu(cfg);
            addRun(h, makeBenchmark(g.kernel, 0.25)->run(gpu), gpu);
        }
    }
    EXPECT_EQ(h.hex(), g.sha256) << g.kernel;
}

INSTANTIATE_TEST_SUITE_P(Kernels, GoldenDigests,
                         ::testing::ValuesIn(kGoldenDigests),
                         [](const auto &info) {
                             return std::string(info.param.kernel);
                         });

TEST(GoldenDigests, TwoLevelRunsPinned)
{
    // The fourth base policy on every registry kernel, with and without
    // BOWS.
    harness::FingerprintHasher h;
    for (const GoldenDigest &g : kGoldenDigests) {
        for (bool bows : {false, true}) {
            GpuConfig cfg = makeGtx480Config();
            cfg.numCores = 4;
            cfg.scheduler = SchedulerKind::TwoLevel;
            cfg.bows.enabled = bows;
            cfg.collectStallBreakdown = true;
            Gpu gpu(cfg);
            addRun(h, makeBenchmark(g.kernel, 0.25)->run(gpu), gpu);
        }
    }
    EXPECT_EQ(h.hex(),
              "2b12e9e08c9de64a862096b831628345d7fc8f25c53993a438fa424b076f5a2f");
}

TEST(GoldenDigests, ArbitrationVariantsPinned)
{
    // BOWS throttling without deprioritization (ablation_bows's
    // "throttle" mode), then four scheduler units per SM on the Pascal
    // model, each under every base policy.
    const SchedulerKind policies[] = {SchedulerKind::LRR, SchedulerKind::GTO,
                                      SchedulerKind::CAWA,
                                      SchedulerKind::TwoLevel};
    harness::FingerprintHasher h;
    for (bool pascal : {false, true}) {
        for (const char *kernel : {"HT", "ATM"}) {
            for (SchedulerKind sched : policies) {
                GpuConfig cfg =
                    pascal ? makeGtx1080TiConfig() : makeGtx480Config();
                cfg.numCores = 4;
                cfg.scheduler = sched;
                cfg.bows.enabled = true;
                cfg.bows.deprioritize = pascal;
                cfg.collectStallBreakdown = true;
                Gpu gpu(cfg);
                addRun(h, makeBenchmark(kernel, 0.25)->run(gpu), gpu);
            }
        }
    }
    EXPECT_EQ(h.hex(),
              "47ae5da4002988a3c559d8a0bba268c4b01797a6ffef36653e73feb0f5b5137f");
}

TEST(GoldenDigests, HashtableVariantsPinned)
{
    // The hashtable shapes fig01, fig03 and fig16 sweep through HT
    // overrides, at a small insertion count. Each shape is built twice,
    // directly and through the registry, and both must hit the digest
    // recorded from the direct build before the overrides existed.
    struct Variant {
        const char *name;
        bool pascal;
        bool bows;
        HashtableParams p;
        const char *sha256;
    };
    auto shape = [](unsigned insertions, unsigned buckets, unsigned ctas,
                    unsigned threads, unsigned delay) {
        HashtableParams p;
        p.insertions = insertions;
        p.buckets = buckets;
        p.ctas = ctas;
        p.threadsPerCta = threads;
        p.delayFactor = delay;
        return p;
    };
    const Variant variants[] = {
        {"fig01_fermi", false, false, shape(2048, 128, 30, 256, 0),
         "08af8d588e90ec89786b932f9d7ef45254add188c227dd0663f4cf6f2962a00a"},
        {"fig01_pascal", true, false, shape(2048, 128, 30, 256, 0),
         "3ffebf08488972608c70bb8f625cea5c14fed422e7c9d38e23bee7620801c2b3"},
        {"fig01_single", false, false, shape(512, 128, 1, 32, 0),
         "ebefb591af10ac06b3f09b9f6acc4c5e96b5d2a4390626b49575812645694ef8"},
        {"fig03_delay", true, false, shape(2048, 512, 30, 256, 100),
         "2c85c13e80d0ff5481885437468d30447701f7d508251838541aad9bff18c1a9"},
        {"fig16_gto", false, false, shape(2048, 256, 30, 256, 0),
         "1badf2a57c0459400f4ae557bbe77c4076a2c0463ee2c076f5b2d3649b5d4d62"},
        {"fig16_bows", false, true, shape(2048, 256, 30, 256, 0),
         "e53a9d072786738ab24c0e76ebd65912880d1d44b5731855c2e2387a6d6fd7a8"},
    };
    for (const Variant &v : variants) {
        const HashtableParams &p = v.p;
        const KernelParams overrides = {{"insertions", p.insertions},
                                        {"buckets", p.buckets},
                                        {"ctas", p.ctas},
                                        {"threadsPerCta", p.threadsPerCta},
                                        {"delayFactor", p.delayFactor}};
        for (bool registry : {false, true}) {
            GpuConfig cfg =
                v.pascal ? makeGtx1080TiConfig() : makeGtx480Config();
            cfg.numCores = 4;
            cfg.bows.enabled = v.bows;
            Gpu gpu(cfg);
            auto kernel = registry ? makeBenchmark("HT", 1.0, overrides)
                                   : makeHashtable(p);
            harness::FingerprintHasher h;
            addRun(h, kernel->run(gpu), gpu);
            EXPECT_EQ(h.hex(), v.sha256)
                << v.name << (registry ? " via overrides" : " direct");
        }
    }
}

TEST(GoldenDigests, TraceStreamPinned)
{
    // The full event stream of a traced HT run — every event, in order,
    // byte for byte (TraceEvent is packed with explicit padding).
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 4;
    cfg.bows.enabled = true;
    trace::RingRecorder rec;
    Gpu gpu(cfg);
    gpu.setTraceSink(&rec);
    const KernelStats s = makeBenchmark("HT", 0.1)->run(gpu);
    ASSERT_EQ(rec.dropped(), 0u) << "ring too small for an exact digest";
    harness::FingerprintHasher h;
    for (const trace::TraceEvent &ev : rec.events()) {
        h.add("ev", std::string(reinterpret_cast<const char *>(&ev),
                                sizeof ev));
    }
    addRun(h, s, gpu);
    EXPECT_EQ(h.hex(),
              "4e9ba661dcf4a1cfa93bbddb010fcc3f5cde43729b9695e8699ca345b7417920");
}

TEST(GoldenDigests, TwoDeviceRunsPinned)
{
    // The device split: per-device stats, link traffic and the shared
    // system lock tracker, for two lock kernels and a streaming kernel.
    harness::FingerprintHasher h;
    for (const char *kernel : {"HT", "ATM", "VEC"}) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 4;
        cfg.bows.enabled = true;
        cfg.numDevices = 2;
        Gpu gpu(cfg);
        addRun(h, makeBenchmark(kernel, 0.25)->run(gpu), gpu);
    }
    EXPECT_EQ(h.hex(),
              "9d2b8857e1bf65fb87ba5f90372debd66f1b71e5abf8c1badc172e1c07de83ca");
}


TEST(GoldenDigests, FunctionalRunsPinned)
{
    // Fast-functional execution: every registry kernel on one device,
    // then the two-device round-robin with its shared lock tracker.
    harness::FingerprintHasher h;
    for (const GoldenDigest &g : kGoldenDigests) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 4;
        cfg.execMode = ExecMode::Functional;
        Gpu gpu(cfg);
        addRun(h, makeBenchmark(g.kernel, 0.25)->run(gpu), gpu);
    }
    for (const char *kernel : {"HT", "ATM", "VEC"}) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 4;
        cfg.execMode = ExecMode::Functional;
        cfg.numDevices = 2;
        Gpu gpu(cfg);
        addRun(h, makeBenchmark(kernel, 0.25)->run(gpu), gpu);
    }
    EXPECT_EQ(h.hex(),
              "8498f4b83abb9d659d815ec1ed83c3a7e14daa7faad7011289613379da25c89c");
}

/** Digest of the --sync-report bytes of the two lock kernels — per-
 *  address CAS splits, sessions, histograms and storms — base and BOWS,
 *  on @p num_devices devices. */
std::string
syncReportDigest(unsigned num_devices)
{
    harness::FingerprintHasher h;
    for (const char *kernel : {"HT", "ATM"}) {
        for (bool bows : {false, true}) {
            GpuConfig cfg = makeGtx480Config();
            cfg.numCores = 4;
            cfg.scheduler = SchedulerKind::GTO;
            cfg.bows.enabled = bows;
            cfg.numDevices = num_devices;
            syncprof::SyncProfileRegistry reg;
            Gpu gpu(cfg);
            gpu.setSyncProf(&reg);
            makeBenchmark(kernel, 0.25)->run(gpu);
            h.add("report", reg.reportJson().dump());
        }
    }
    return h.hex();
}

TEST(GoldenDigests, SyncReportPinned)
{
    EXPECT_EQ(syncReportDigest(1),
              "b5728b425c5a299f1cb6537c01af3164ad460e694a2936bfdffd4b62e96fefa2");
}

TEST(GoldenDigests, TwoDeviceSyncReportPinned)
{
    // One registry and one lock tracker serve both devices.
    EXPECT_EQ(syncReportDigest(2),
              "de98b53a195fef46ca5ad5b0f8aa40162b71f66d4903b87e8dbcb8726b11fae5");
}

/** Digest of the serialized --metrics series of one HT run on
 *  @p num_devices devices; @p path's suffix picks JSON or CSV. */
std::string
metricsSeriesDigest(unsigned num_devices, const std::string &path)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 4;
    cfg.numDevices = num_devices;
    cfg.collectStallBreakdown = true;
    syncprof::SyncProfileRegistry reg;
    metrics::MetricsSampler sampler(500, path);
    Gpu gpu(cfg);
    gpu.setSyncProf(&reg);
    gpu.setMetrics(&sampler);
    makeBenchmark("HT", 0.25)->run(gpu);
    harness::FingerprintHasher h;
    h.add("series", sampler.serialize());
    return h.hex();
}

TEST(GoldenDigests, MetricsSeriesPinned)
{
    // Every column of the sampled series, the link and sync blocks
    // included, byte for byte in both output formats.
    EXPECT_EQ(metricsSeriesDigest(1, ""),
              "322c3acd60b87374f709330005c0b90883bd28b0fc993e4461d49b05b0b6f10c");
    EXPECT_EQ(metricsSeriesDigest(1, "series.csv"),
              "cec0c868ae431ed1131c9041e55c2f9d486688050b184c9636205f68b40e3a7f");
    EXPECT_EQ(metricsSeriesDigest(2, ""),
              "c265cc97c7957c0709e2e066caa6e205edcb83c51c569e83bcee3c568343ac63");
    EXPECT_EQ(metricsSeriesDigest(2, "series.csv"),
              "f6f897231cf2875b0edfcd3b1ccabdc466a1bb5cbcb80e0ca1e237b4d55a55fc");
}

}  // namespace
}  // namespace bowsim
