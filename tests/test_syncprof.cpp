#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/json.hpp"
#include "src/harness/json_check.hpp"
#include "src/isa/assembler.hpp"
#include "src/kernels/registry.hpp"
#include "src/sim/gpu.hpp"
#include "src/syncprof/syncprof.hpp"

/**
 * @file
 * The sync-contention profiler (docs/SYNC.md): histogram bucketing
 * edges, Gini degenerate cases, storm-detector hysteresis, the
 * lock-session state machine (acquire/hold/hand-off latencies,
 * fairness, cross-attribution), and the --sync-report document checked
 * by json_check --sync-report.
 */

namespace bowsim {
namespace {

using harness::Json;
using syncprof::SyncProfileRegistry;

// --- log2 bucketing -----------------------------------------------------

TEST(SyncProf, Log2BucketEdges)
{
    // Bucket 0 is exactly 0; bucket k >= 1 covers [2^(k-1), 2^k).
    EXPECT_EQ(syncprof::log2Bucket(0), 0u);
    EXPECT_EQ(syncprof::log2Bucket(1), 1u);
    EXPECT_EQ(syncprof::log2Bucket(2), 2u);
    EXPECT_EQ(syncprof::log2Bucket(3), 2u);
    EXPECT_EQ(syncprof::log2Bucket(4), 3u);
    EXPECT_EQ(syncprof::log2Bucket(7), 3u);
    EXPECT_EQ(syncprof::log2Bucket(8), 4u);
    EXPECT_EQ(syncprof::log2Bucket(1023), 10u);
    EXPECT_EQ(syncprof::log2Bucket(1024), 11u);
    // Everything past 2^30 saturates into the last bucket.
    EXPECT_EQ(syncprof::log2Bucket(1ull << 30),
              syncprof::kHistBuckets - 1);
    EXPECT_EQ(syncprof::log2Bucket(~0ull), syncprof::kHistBuckets - 1);
}

TEST(SyncProf, LatencyHistCounts)
{
    syncprof::LatencyHist h;
    h.add(0);
    h.add(5);
    h.add(5);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[syncprof::log2Bucket(5)], 2u);
}

// --- Gini ---------------------------------------------------------------

TEST(SyncProf, GiniDegenerateCasesAreZero)
{
    EXPECT_DOUBLE_EQ(syncprof::giniIndex({}), 0.0);
    EXPECT_DOUBLE_EQ(syncprof::giniIndex({7}), 0.0);
    EXPECT_DOUBLE_EQ(syncprof::giniIndex({0, 0, 0}), 0.0);
    EXPECT_DOUBLE_EQ(syncprof::giniIndex({4, 4, 4, 4}), 0.0);
}

TEST(SyncProf, GiniOrdersByInequality)
{
    const double skewed = syncprof::giniIndex({1, 1, 1, 97});
    const double mild = syncprof::giniIndex({20, 25, 25, 30});
    EXPECT_GT(skewed, mild);
    EXPECT_GT(skewed, 0.5);
    EXPECT_LE(skewed, 1.0);
    EXPECT_GE(mild, 0.0);
    // One warp holding everything approaches (n-1)/n.
    EXPECT_NEAR(syncprof::giniIndex({0, 0, 0, 100}), 0.75, 1e-9);
}

// --- the lock-session state machine -------------------------------------

constexpr Addr kLock = 0x1000;
constexpr LockTransition kAcquired{LockTransition::Kind::Acquire};
constexpr LockTransition kFailed{LockTransition::Kind::InterWarpFail};

/** acquire = CAS-success at an acquire PC; fail = failed CAS there;
 *  release = the holder's exchange at the release PC. */
void
acquire(SyncProfileRegistry &reg, std::uint64_t warp, Cycle now)
{
    reg.onAtomic(kLock, warp, now, true, true, kAcquired);
}

void
failAcquire(SyncProfileRegistry &reg, std::uint64_t warp, Cycle now)
{
    reg.onAtomic(kLock, warp, now, true, true, kFailed);
}

void
releaseLock(SyncProfileRegistry &reg, std::uint64_t warp, Cycle now)
{
    reg.onAtomic(kLock, warp, now, false, false,
                 {LockTransition::Kind::Release, warp});
}

TEST(SyncProf, SessionTracksAcquireHoldAndHandoff)
{
    SyncProfileRegistry reg;
    acquire(reg, 1, 10);      // uncontended: acquire latency 0
    failAcquire(reg, 2, 12);  // warp 2's session opens here
    failAcquire(reg, 2, 14);
    releaseLock(reg, 1, 20);  // warp 1 held 10 cycles
    acquire(reg, 2, 24);      // contended acquire: 24 - 12 = 12

    const auto hot = reg.hotAddresses(1);
    ASSERT_EQ(hot.size(), 1u);
    const syncprof::AddrSummary &s = hot.front();
    EXPECT_EQ(s.addr, kLock);
    EXPECT_EQ(s.atomics, 5u);
    EXPECT_EQ(s.casAttempts, 4u);
    EXPECT_EQ(s.casFailures, 2u);
    EXPECT_EQ(s.acquires, 2u);
    EXPECT_EQ(s.releases, 1u);
    EXPECT_EQ(s.peakWaiters, 1u);
    EXPECT_DOUBLE_EQ(s.failedShare(), 0.5);

    const syncprof::Fairness f = reg.fairnessOf(kLock);
    EXPECT_EQ(f.warps, 2u);
    EXPECT_EQ(f.maxAcq, 1u);
    EXPECT_DOUBLE_EQ(f.meanAcq, 1.0);
    EXPECT_DOUBLE_EQ(f.gini, 0.0);

    // The histograms landed in the right buckets: acquire latencies
    // {0, 12}, hold {10}, hand-off {4} (release at 20, new owner at 24).
    const Json doc = reg.reportJson();
    const Json &a = doc.at("addresses").at(0);
    EXPECT_EQ(a.at("acquire_latency").at(0).asInt(), 1);
    EXPECT_EQ(a.at("acquire_latency")
                  .at(syncprof::log2Bucket(12))
                  .asInt(),
              1);
    EXPECT_EQ(a.at("hold_cycles").at(syncprof::log2Bucket(10)).asInt(),
              1);
    EXPECT_EQ(
        a.at("handoff_cycles").at(syncprof::log2Bucket(4)).asInt(), 1);
}

TEST(SyncProf, PlainStoreReleasesTheLock)
{
    // Ticket/array locks release with a plain store, not an exchange.
    SyncProfileRegistry reg;
    acquire(reg, 1, 10);
    reg.onRelease(kLock, 1, 18);
    acquire(reg, 2, 30);
    const auto hot = reg.hotAddresses(1);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot.front().releases, 1u);
    EXPECT_EQ(hot.front().acquires, 2u);
}

TEST(SyncProf, BackoffAndSibAttributeToLastFailedAddress)
{
    SyncProfileRegistry reg;
    failAcquire(reg, 7, 10);
    reg.onBackoffEnter(7, 12);
    reg.onSibConfirm(7, 14);
    // A warp that never failed a CAS has no attribution target.
    reg.onBackoffEnter(99, 12);
    const auto hot = reg.hotAddresses(1);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot.front().backoffEnters, 1u);
    EXPECT_EQ(hot.front().sibConfirms, 1u);
}

TEST(SyncProf, ContendedLinesCountFirstFailurePerLine)
{
    SyncProfileRegistry reg;
    EXPECT_EQ(reg.contendedLines(), 0u);
    acquire(reg, 1, 1);  // success alone is not contention
    EXPECT_EQ(reg.contendedLines(), 0u);
    failAcquire(reg, 2, 2);
    failAcquire(reg, 2, 3);  // same line counted once
    EXPECT_EQ(reg.contendedLines(), 1u);
    reg.onAtomic(0x8000, 3, 4, true, true, kFailed);
    EXPECT_EQ(reg.contendedLines(), 2u);
}

TEST(SyncProf, HotAddressesRankByFailuresThenAttempts)
{
    SyncProfileRegistry reg;
    // 0x3000: 2 failures; 0x2000: 1 failure, 2 attempts; 0x1000: 1
    // failure, 1 attempt.
    reg.onAtomic(0x3000, 1, 1, true, true, kFailed);
    reg.onAtomic(0x3000, 2, 2, true, true, kFailed);
    reg.onAtomic(0x2000, 1, 3, true, true, kFailed);
    reg.onAtomic(0x2000, 2, 4, true, true, kAcquired);
    reg.onAtomic(0x1000, 1, 5, true, true, kFailed);
    const auto hot = reg.hotAddresses(3);
    ASSERT_EQ(hot.size(), 3u);
    EXPECT_EQ(hot[0].addr, 0x3000u);
    EXPECT_EQ(hot[1].addr, 0x2000u);
    EXPECT_EQ(hot[2].addr, 0x1000u);
}

// --- storm detector ------------------------------------------------------

TEST(SyncProf, StormEntersAtNinetyPercentAndExitsBelowHalf)
{
    SyncProfileRegistry reg;
    static_assert(SyncProfileRegistry::kStormWindow == 64);
    // Seven successes and 57 failures fill the 64-attempt window below
    // the 90% threshold: no storm yet.
    for (int i = 0; i < 7; ++i)
        acquire(reg, 1, i);
    for (int i = 0; i < 57; ++i)
        failAcquire(reg, 2, 10 + i);
    EXPECT_TRUE(reg.stormsOf(kLock).empty());
    // The next failure pushes a success out: 58 of 64 enters the storm
    // at attempt 65, dated back one window.
    failAcquire(reg, 2, 100);
    auto storms = reg.stormsOf(kLock);
    ASSERT_EQ(storms.size(), 1u);  // open interval, reported to "now"
    EXPECT_EQ(storms[0].fromAttempt, 1u);
    EXPECT_EQ(storms[0].toAttempt, 65u);
    // Successes dilute the window; hysteresis keeps the storm open
    // while 32 of 64 still failed.
    for (int i = 0; i < 32; ++i)
        acquire(reg, 3, 200 + i);
    storms = reg.stormsOf(kLock);
    ASSERT_EQ(storms.size(), 1u);
    EXPECT_EQ(storms[0].toAttempt, 97u);
    acquire(reg, 3, 300);  // 31 of 64 failed: the storm closes
    acquire(reg, 3, 301);  // a closed interval no longer grows
    storms = reg.stormsOf(kLock);
    ASSERT_EQ(storms.size(), 1u);
    EXPECT_EQ(storms[0].fromAttempt, 1u);
    EXPECT_EQ(storms[0].toAttempt, 98u);
    const auto hot = reg.hotAddresses(1);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot.front().stormCount, 1u);
}

TEST(SyncProf, NullHandleForwardsNothing)
{
    syncprof::SyncProf off;
    // Every hook must be a safe no-op when detached.
    off.onAtomic(kLock, 1, 1, true, true, kFailed);
    off.onRelease(kLock, 1, 1);
    off.onBackoffEnter(1, 1);
    off.onSibConfirm(1, 1);
    off.onTimedAtomic(kLock, 1, false);

    SyncProfileRegistry reg;
    syncprof::SyncProf on(&reg);
    on.onAtomic(kLock, 1, 1, true, true, kFailed);
    EXPECT_EQ(reg.casAttempts(), 1u);
}

// --- json_check --sync-report -------------------------------------------

/** A report with real session, storm, fairness and timed data. */
Json
sampleReport()
{
    SyncProfileRegistry reg;
    acquire(reg, 1, 10);
    // A full window of failures: a storm, still open at the end.
    for (int i = 0; i < 64; ++i)
        failAcquire(reg, 2, 20 + i);
    releaseLock(reg, 1, 90);
    acquire(reg, 2, 94);
    reg.onBackoffEnter(2, 96);
    reg.onTimedAtomic(kLock, 5, false);
    reg.onTimedAtomic(kLock, 9, true);
    reg.onAtomic(0x2000, 3, 100, true, true, kFailed);
    return reg.reportJson();
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

TEST(JsonCheckSyncReport, ValidReportPasses)
{
    const harness::CheckResult r =
        harness::checkSyncReport(sampleReport());
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_NE(r.message.find("sync-report"), std::string::npos);
    EXPECT_NE(r.message.find("2 addresses"), std::string::npos);
}

TEST(JsonCheckSyncReport, UnknownVersionFails)
{
    const Json doc =
        mutated(sampleReport(), "\"version\":1", "\"version\":2");
    EXPECT_FALSE(harness::checkSyncReport(doc).ok);
}

TEST(JsonCheckSyncReport, FailedShareOutOfRangeFails)
{
    Json doc = sampleReport();
    const std::string share =
        "\"failed_share\":" +
        doc.at("totals").at("failed_share").dump();
    const harness::CheckResult r = harness::checkSyncReport(
        mutated(doc, share, "\"failed_share\":1.5"));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("failed_share"), std::string::npos);
}

TEST(JsonCheckSyncReport, MoreFailuresThanAttemptsFails)
{
    Json doc = sampleReport();
    const std::string failures =
        "\"cas_failures\":" +
        doc.at("totals").at("cas_failures").dump();
    const harness::CheckResult r = harness::checkSyncReport(
        mutated(doc, failures, "\"cas_failures\":999999"));
    EXPECT_FALSE(r.ok);
}

TEST(JsonCheckSyncReport, UnsortedAddressesFail)
{
    // Swapping the two address entries breaks the hottest-first order.
    Json doc = sampleReport();
    Json swapped = Json::object();
    for (const auto &[k, v] : doc.members()) {
        if (k == "addresses") {
            Json arr = Json::array();
            arr.push(doc.at("addresses").at(1));
            arr.push(doc.at("addresses").at(0));
            swapped.set(k, std::move(arr));
        } else {
            swapped.set(k, v);
        }
    }
    const harness::CheckResult r = harness::checkSyncReport(swapped);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("hottest-first"), std::string::npos);
}

TEST(JsonCheckSyncReport, MissingFairnessFails)
{
    const Json doc = mutated(sampleReport(), "\"fairness\"", "\"fair\"");
    EXPECT_FALSE(harness::checkSyncReport(doc).ok);
}

TEST(SyncProf, HotReportTextNamesTheAddress)
{
    SyncProfileRegistry empty;
    EXPECT_TRUE(empty.hotReport().empty());

    SyncProfileRegistry reg;
    acquire(reg, 1, 10);
    failAcquire(reg, 2, 12);
    const std::string text = reg.hotReport();
    EXPECT_NE(text.find("hot sync objects"), std::string::npos);
    EXPECT_NE(text.find("0x1000"), std::string::npos);
}


// --- agreement with the Fig. 2 outcome counters ---------------------------

TEST(SyncProf, TotalsAgreeWithFigure2Outcomes)
{
    // The Fig. 2 outcome counters and the profiler observe the same
    // atomic and store stream through one hook site, so their lock
    // totals must agree on every registry kernel: each acquire-site CAS
    // is one attempt, each success one acquire, and every acquired lock
    // is released by the end of the run.
    std::vector<std::string> kernels = syncKernelNames();
    for (const std::string &name : syncFreeKernelNames())
        kernels.push_back(name);
    std::uint64_t all_acquires = 0;
    for (const std::string &name : kernels) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 4;
        cfg.scheduler = SchedulerKind::GTO;
        SyncProfileRegistry reg;
        Gpu gpu(cfg);
        gpu.setSyncProf(&reg);
        const SyncOutcomes o = makeBenchmark(name, 0.25)->run(gpu).outcomes;
        const Json doc = reg.reportJson();
        const Json &t = doc.at("totals");
        const auto total = [&](const char *key) {
            return static_cast<std::uint64_t>(t.at(key).asInt());
        };
        const std::uint64_t fails = o.interWarpFail + o.intraWarpFail;
        EXPECT_EQ(total("acquires"), o.lockSuccess) << name;
        EXPECT_EQ(total("cas_attempts"), o.lockSuccess + fails) << name;
        EXPECT_EQ(total("cas_failures"), fails) << name;
        EXPECT_EQ(total("releases"), total("acquires")) << name;
        all_acquires += o.lockSuccess;
    }
    EXPECT_GT(all_acquires, 0u) << "no lock kernel acquired a lock";
}

// --- one ownership model ---------------------------------------------------

/** A ticket lock, one thread per CTA, whose fetch-add ticket grab
 *  carries the acquire annotation: an annotated atomic that is no CAS. */
constexpr const char *kAnnotatedTicketLock = R"(
.kernel annotated_ticket
.param 2
  ld.param.u64 %r1, [0];         // next ticket
  ld.param.u64 %r2, [8];         // now serving
.annot sync_begin
  .annot acquire
  atom.global.add.b64 %r3, [%r1], 1;
WAIT:
  ld.volatile.global.u64 %r4, [%r2];
  .annot wait
  setp.ne.s64 %p1, %r4, %r3;
  .annot spin
  @%p1 bra WAIT;
.annot sync_end
  add %r4, %r3, 1;
  st.global.u64 [%r2], %r4;      // now_serving = ticket + 1
  exit;
)";

TEST(SyncProf, NonCasAcquireSiteCountsNoAcquire)
{
    // Only a CAS acquires a lock word, so the report and Fig. 2 both
    // count nothing at a fetch-add acquire site.
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    SyncProfileRegistry reg;
    Gpu gpu(cfg);
    gpu.setSyncProf(&reg);
    const Addr next = gpu.malloc(8);
    const Addr serving = gpu.malloc(8);
    const KernelStats s =
        gpu.launch(assemble(kAnnotatedTicketLock), Dim3{8, 1, 1},
                   Dim3{1, 1, 1},
                   {static_cast<Word>(next), static_cast<Word>(serving)});
    const Json doc = reg.reportJson();
    const Json &t = doc.at("totals");
    EXPECT_EQ(t.at("atomics").asInt(), 8);
    EXPECT_EQ(t.at("acquires").asInt(), 0);
    EXPECT_EQ(t.at("releases").asInt(), 0);
    EXPECT_EQ(s.outcomes.lockSuccess, 0u);
}

}  // namespace
}  // namespace bowsim
