#include <gtest/gtest.h>

#include <iostream>

#include "src/harness/sweep.hpp"
#include "src/kernels/hashtable.hpp"
#include "src/kernels/registry.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sim/gpu.hpp"

namespace bowsim {
namespace {

GpuConfig
baseConfig(SchedulerKind sched, bool bows)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 4;
    cfg.scheduler = sched;
    cfg.bows.enabled = bows;
    return cfg;
}

HashtableParams
contendedHt()
{
    HashtableParams p;
    p.insertions = 4096;
    p.buckets = 64;
    p.ctas = 8;
    p.threadsPerCta = 256;
    return p;
}

KernelStats
runHt(const GpuConfig &cfg, const HashtableParams &p)
{
    Gpu gpu(cfg);
    auto h = makeHashtable(p);
    return h->run(gpu);
}

TEST(Integration, DdosDetectsHashtableSpinBranchWithNoFalsePositives)
{
    KernelStats s = runHt(baseConfig(SchedulerKind::GTO, false),
                          contendedHt());
    EXPECT_DOUBLE_EQ(s.ddos.tsdr(), 1.0) << "HT spin branch not confirmed";
    EXPECT_DOUBLE_EQ(s.ddos.fsdr(), 0.0) << "XOR hashing false-detected";
    EXPECT_GT(s.ddos.dprTrue(), 0.0);
    EXPECT_LT(s.ddos.dprTrue(), 0.5) << "detection phase suspiciously long";
}

TEST(Integration, BowsSpeedsUpContendedHashtable)
{
    KernelStats base = runHt(baseConfig(SchedulerKind::GTO, false),
                             contendedHt());
    KernelStats bows = runHt(baseConfig(SchedulerKind::GTO, true),
                             contendedHt());
    std::cout << "[ht-contended] GTO=" << base.cycles
              << " GTO+BOWS=" << bows.cycles << " speedup="
              << static_cast<double>(base.cycles) / bows.cycles << "\n";
    EXPECT_LT(bows.cycles, base.cycles);
    // BOWS exists to cut wasted spin work: dynamic instructions and lock
    // failures must drop substantially (paper: 2.1x fewer instructions).
    EXPECT_LT(bows.threadInstructions, base.threadInstructions);
    EXPECT_LT(bows.outcomes.interWarpFail, base.outcomes.interWarpFail);
}

TEST(Integration, BowsLeavesSyncFreeKernelsUntouchedWithXorHashing)
{
    for (const std::string &name : syncFreeKernelNames()) {
        Cycle cycles[2];
        for (int bows = 0; bows < 2; ++bows) {
            Gpu gpu(baseConfig(SchedulerKind::GTO, bows != 0));
            auto h = makeBenchmark(name, 0.25);
            cycles[bows] = h->run(gpu).cycles;
        }
        EXPECT_EQ(cycles[0], cycles[1]) << name;
    }
}

TEST(Integration, ModuloHashingFalselyDetectsPowerOfTwoLoops)
{
    for (const char *name : {"MS", "HL"}) {
        GpuConfig cfg = baseConfig(SchedulerKind::GTO, false);
        cfg.ddos.hash = HashKind::Modulo;
        Gpu gpu(cfg);
        auto h = makeBenchmark(name, 0.25);
        KernelStats s = h->run(gpu);
        EXPECT_GT(s.ddos.fsdr(), 0.0)
            << name << ": MODULO hashing should false-detect";
    }
    // The same kernels under XOR hashing are clean.
    for (const char *name : {"MS", "HL"}) {
        GpuConfig cfg = baseConfig(SchedulerKind::GTO, false);
        cfg.ddos.hash = HashKind::Xor;
        Gpu gpu(cfg);
        auto h = makeBenchmark(name, 0.25);
        KernelStats s = h->run(gpu);
        EXPECT_DOUBLE_EQ(s.ddos.fsdr(), 0.0) << name;
    }
}

TEST(Integration, OracleAndDdosSibsAgreeOnHashtable)
{
    GpuConfig ddos_cfg = baseConfig(SchedulerKind::GTO, true);
    ddos_cfg.spinDetect = SpinDetect::Ddos;
    GpuConfig oracle_cfg = baseConfig(SchedulerKind::GTO, true);
    oracle_cfg.spinDetect = SpinDetect::Oracle;
    KernelStats d = runHt(ddos_cfg, contendedHt());
    KernelStats o = runHt(oracle_cfg, contendedHt());
    std::cout << "[ht-oracle-vs-ddos] oracle=" << o.cycles
              << " ddos=" << d.cycles << "\n";
    // DDOS pays a detection phase, then behaves like the oracle; allow a
    // modest gap in either direction.
    double ratio = static_cast<double>(d.cycles) / o.cycles;
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.4);
}

TEST(Integration, BowsReducesBackedOffCompetition)
{
    KernelStats bows = runHt(baseConfig(SchedulerKind::GTO, true),
                             contendedHt());
    // Fig. 11: under contention a visible fraction of resident warps sit
    // in the backed-off state.
    EXPECT_GT(bows.backedOffFraction(), 0.02);
    EXPECT_LT(bows.backedOffFraction(), 0.98);
}

TEST(Integration, ContentionSweepBowsGainGrowsWithContention)
{
    double speedup_high, speedup_low;
    {
        HashtableParams p = contendedHt();
        p.buckets = 16;
        speedup_high =
            static_cast<double>(
                runHt(baseConfig(SchedulerKind::GTO, false), p).cycles) /
            runHt(baseConfig(SchedulerKind::GTO, true), p).cycles;
    }
    {
        HashtableParams p = contendedHt();
        p.buckets = 4096;
        speedup_low =
            static_cast<double>(
                runHt(baseConfig(SchedulerKind::GTO, false), p).cycles) /
            runHt(baseConfig(SchedulerKind::GTO, true), p).cycles;
    }
    std::cout << "[contention] speedup@32buckets=" << speedup_high
              << " speedup@4096buckets=" << speedup_low << "\n";
    EXPECT_GT(speedup_high, speedup_low);
    EXPECT_GT(speedup_high, 1.1);
}

TEST(Integration, SleepingSmsMatchTheNoSkipOracle)
{
    // The fast-suite guard on per-SM wake horizons (docs/PERF.md), so
    // the sanitizer job runs sleeping SMs against the cycle-everything
    // oracle: BOWS parks HT and ATM warps long enough that one SM
    // sleeps while another issues. Memory, every statsToJson field
    // (per-SM stall rows included) and a sampled metrics series must
    // match with idleSkip on and off, at one and two devices. HL and KM
    // cover sleeping SMs' L1-port steps: KM retries on full MSHRs while
    // its SMs sleep, and HL lands fills while the load that waits on
    // them still has a transaction queued.
    struct Run {
        std::uint64_t digest;
        std::string stats;
        std::string series;
    };
    auto run = [](const std::string &kernel, unsigned devices, bool skip,
                  bool sampled) {
        GpuConfig cfg = baseConfig(SchedulerKind::GTO, true);
        cfg.numDevices = devices;
        cfg.collectStallBreakdown = true;
        cfg.idleSkip = skip;
        Gpu gpu(cfg);
        metrics::MetricsSampler sampler(500);
        if (sampled)
            gpu.setMetrics(&sampler);
        const KernelStats s = makeBenchmark(kernel, 0.05)->run(gpu);
        return Run{gpu.mem().digest(), harness::statsToJson(s).dump(),
                   sampled ? sampler.serialize() : std::string()};
    };
    struct Case {
        const char *kernel;
        unsigned devices;
        bool sampled;
    };
    const Case cases[] = {{"HT", 1, false},  {"HT", 2, false},
                          {"ATM", 1, false}, {"ATM", 2, false},
                          {"ATM", 1, true},  {"HL", 1, false},
                          {"KM", 1, false}};
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.kernel) + " at " +
                     std::to_string(c.devices) + " device(s)" +
                     (c.sampled ? " with metrics" : ""));
        const Run on = run(c.kernel, c.devices, true, c.sampled);
        const Run off = run(c.kernel, c.devices, false, c.sampled);
        EXPECT_EQ(on.digest, off.digest);
        EXPECT_EQ(on.stats, off.stats);
        EXPECT_EQ(on.series, off.series);
    }
}

TEST(Integration, PascalConfigRunsTheSuite)
{
    GpuConfig cfg = makeGtx1080TiConfig();
    cfg.numCores = 4;
    cfg.bows.enabled = true;
    Gpu gpu(cfg);
    auto h = makeBenchmark("HT", 0.2);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.cycles, 0u);
}

}  // namespace
}  // namespace bowsim
