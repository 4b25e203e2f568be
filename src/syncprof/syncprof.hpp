#ifndef BOWSIM_SYNCPROF_SYNCPROF_HPP
#define BOWSIM_SYNCPROF_SYNCPROF_HPP

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/lock_tracker.hpp"

/**
 * @file
 * Sync-contention profiler (docs/SYNC.md, "Sync observability"): a
 * deterministic per-address attribution layer over the committed
 * atomic/load-store path. Where traces count events by hardware
 * structure, the SyncProfileRegistry answers "*which lock* is hot, who
 * is starving on it, and did BOWS/DDOS help *that address*": per
 * byte-address CAS/failed-CAS splits, acquire/hold/hand-off latency
 * histograms, per-warp fairness (Gini), a sliding-window CAS-storm
 * detector, local/remote device splits, and DDOS/BOWS transitions
 * cross-attributed to the address whose failed CAS caused them.
 *
 * Determinism contract (why reports are byte-identical across --jobs,
 * idle-skip and device count):
 *
 *  - Functional hooks (onAtomic / onRelease) fire on the functional
 *    global-memory path at issue, in the cycle loop's fixed device/SM
 *    order, so the profiler observes one (addr, warp, transition,
 *    cycle) sequence per configuration. Idle-skip never skips a cycle
 *    in which an atomic issues, so cycle stamps are identical too.
 *  - Lock ownership is not modelled here: every hook carries the
 *    LockTracker's transition (acquire, release, inter- or intra-warp
 *    failure), the same value the Fig. 2 counters consume. Session and
 *    storm state is driven *only* by those transitions, which the
 *    differential suites pin as byte-identical across execution knobs.
 *  - Timed hooks (onTimedAtomic, from the L2 banks) contribute only
 *    commutative per-address sums (packet counts, wait cycles, the
 *    local/remote split), so their interleaving with the functional
 *    stream is irrelevant.
 *  - BOWS/DDOS transition hooks fire at issue too, after the warp's
 *    own preceding failed CAS and before its next one; the
 *    cross-attribution map is per-warp, so cross-warp interleaving
 *    cannot change it.
 *
 * The null-handle idiom mirrors trace::Tracer: every hook site holds a
 * SyncProf handle and pays exactly one pointer test when no registry is
 * attached.
 */

namespace bowsim::harness {
class Json;
}

namespace bowsim::syncprof {

/** Fixed histogram width: bucket 0 is exactly 0, bucket k >= 1 covers
 *  [2^(k-1), 2^k). Values beyond 2^30 land in the last bucket. */
constexpr unsigned kHistBuckets = 32;

/** Log2 bucket index of @p v (0 -> 0, v -> 1 + floor(log2 v), capped). */
unsigned log2Bucket(std::uint64_t v);

/** Power-of-two histogram for acquire/hold/hand-off latencies. */
struct LatencyHist {
    std::array<std::uint64_t, kHistBuckets> buckets{};
    std::uint64_t count = 0;

    void
    add(std::uint64_t v)
    {
        ++buckets[log2Bucket(v)];
        ++count;
    }
};

/**
 * Gini coefficient of @p counts (0 = perfectly fair, -> 1 = one warp
 * holds everything). Degenerate inputs — empty, single entry, all
 * zeros — report 0 by definition.
 */
double giniIndex(std::vector<std::uint64_t> counts);

/** One closed CAS-storm episode, in per-address CAS-attempt indices. */
struct StormInterval {
    std::uint64_t fromAttempt = 0;
    std::uint64_t toAttempt = 0;
};

/** Per-address fairness summary over the acquiring warps. */
struct Fairness {
    std::uint64_t warps = 0;   ///< distinct acquiring warps
    std::uint64_t maxAcq = 0;  ///< acquisitions by the luckiest warp
    double meanAcq = 0.0;      ///< acquisitions per acquiring warp
    double gini = 0.0;
};

/** Flat per-address summary for tests and litmus evidence. */
struct AddrSummary {
    Addr addr = 0;
    std::uint64_t atomics = 0;
    std::uint64_t casAttempts = 0;
    std::uint64_t casFailures = 0;
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::uint64_t backoffEnters = 0;
    std::uint64_t sibConfirms = 0;
    std::uint64_t stormCount = 0;
    unsigned peakWaiters = 0;

    double
    failedShare() const
    {
        return casAttempts == 0 ? 0.0
                                : static_cast<double>(casFailures) /
                                      static_cast<double>(casAttempts);
    }
};

/**
 * The system-wide profile. One registry serves every device of a launch
 * (lock words live in the shared functional memory, so attribution must
 * be system-wide, exactly like the LockTracker); all hooks run on the
 * simulation's one thread — at issue or inside MemorySystem::request —
 * so the registry is deliberately unsynchronized.
 */
class SyncProfileRegistry {
  public:
    /** Addresses reportJson() emits; hotReport() prints at most 8. */
    static constexpr unsigned kTopN = 32;
    /**
     * CAS-attempt window of the storm detector, one 64-bit word of
     * history per address. A storm enters at >= 90% failed with a full
     * window (58 of 64) and exits below 50% (hysteresis).
     */
    static constexpr unsigned kStormWindow = 64;

    // --- committed functional path (serial, order-deterministic) -------
    /**
     * One committed atomic lane operation on byte address @p addr by
     * global warp @p warp_key at @p now.
     * @param is_cas     the operation was a compare-and-swap
     * @param is_acquire the PC carries the lock-acquire annotation; only
     *                   a CAS there counts acquires and opens sessions
     * @param t          what the operation did to the lock word, as the
     *                   LockTracker classified it
     */
    void onAtomic(Addr addr, std::uint64_t warp_key, Cycle now,
                  bool is_cas, bool is_acquire, LockTransition t);

    /** A committed plain global store to @p addr released the lock word
     *  that warp @p holder held. */
    void onRelease(Addr addr, std::uint64_t holder, Cycle now);

    /** A warp entered BOWS back-off; attributed to its last failed-CAS
     *  address. */
    void onBackoffEnter(std::uint64_t warp_key, Cycle now);

    /** DDOS newly confirmed a SIB for this warp; attributed to its last
     *  failed-CAS address. */
    void onSibConfirm(std::uint64_t warp_key, Cycle now);

    // --- timed path (commutative sums; any interleaving) ---------------
    /**
     * One atomic packet serviced by an L2 bank: @p waited cycles queued
     * behind the bank's atomic service slot, @p remote when the request
     * crossed the inter-device link to a home bank.
     */
    void onTimedAtomic(Addr addr, Cycle waited, bool remote);

    // --- read side ------------------------------------------------------
    /** Distinct cache lines holding at least one failed-CAS address. */
    std::uint64_t contendedLines() const { return contendedLines_; }
    std::uint64_t casAttempts() const { return totalCasAttempts_; }
    std::uint64_t casFailures() const { return totalCasFailures_; }
    /** Highest concurrent-waiter count seen on any single address. */
    unsigned peakWaiters() const { return peakWaiters_; }

    /**
     * The @p n hottest addresses — most failed CAS first, ties broken
     * by CAS attempts, then total atomics, then ascending address — so
     * the order is a pure function of the deterministic counters.
     */
    std::vector<AddrSummary> hotAddresses(std::size_t n) const;

    /** Fairness summary of one address (zeros when untracked). */
    Fairness fairnessOf(Addr addr) const;

    /** Closed storm intervals of one address plus, when a storm is
     *  still open, a final interval ending at the last attempt. */
    std::vector<StormInterval> stormsOf(Addr addr) const;

    /**
     * The full --sync-report document (validated by json_check
     * --sync-report): totals, then the top-N hottest addresses with
     * histograms, fairness, the local/remote split, and storm
     * intervals. Deterministic: every field is a pure function of the
     * deterministic counter state.
     */
    harness::Json reportJson() const;

    /** "Hot sync objects" text block for the --profile kernel report;
     *  empty string when no atomics were observed. */
    std::string hotReport() const;

  private:
    struct Record {
        // Functional-path counters (order-deterministic).
        std::uint64_t atomics = 0;
        std::uint64_t casAttempts = 0;
        std::uint64_t casFailures = 0;
        std::uint64_t acquires = 0;
        std::uint64_t releases = 0;
        std::uint64_t backoffEnters = 0;
        std::uint64_t sibConfirms = 0;

        // Lock-session state.
        Cycle acquiredAt = 0;
        std::uint64_t lastReleaser = 0;
        Cycle releasedAt = 0;
        bool pendingHandoff = false;
        /** Contended acquire sessions: warp key -> first-failure cycle. */
        std::map<std::uint64_t, Cycle> sessions;
        unsigned peakWaiters = 0;
        /** Acquisition counts per warp key (fairness). */
        std::map<std::uint64_t, std::uint64_t> acqByWarp;

        LatencyHist acquireHist;  ///< first failed attempt -> success
        LatencyHist holdHist;     ///< acquire -> release
        LatencyHist handoffHist;  ///< release -> next acquire, new owner

        // Storm detector (bit i of window = attempt i failed).
        std::uint64_t window = 0;
        unsigned windowFill = 0;
        bool inStorm = false;
        std::uint64_t stormFromAttempt = 0;
        std::uint64_t stormCount = 0;
        std::vector<StormInterval> storms;

        // Timed-path sums (commutative).
        std::uint64_t timedAtomics = 0;
        std::uint64_t remoteAtomics = 0;
        std::uint64_t waitCycles = 0;
    };

    void release(Record &r, std::uint64_t holder, Cycle now);
    void stepStorm(Record &r, bool failed);
    /** Hottest-first record order (see hotAddresses). */
    std::vector<const std::pair<const Addr, Record> *> ranked() const;

    /** Per byte-address records, address-ordered (deterministic walks). */
    std::map<Addr, Record> addrs_;
    /** Last failed-CAS address per warp key (BOWS/DDOS attribution). */
    std::unordered_map<std::uint64_t, Addr> lastFailed_;
    /** Lines with >= 1 contended address (sampler gauge support). */
    std::map<Addr, std::uint64_t> contendedPerLine_;

    std::uint64_t totalAtomics_ = 0;
    std::uint64_t totalCasAttempts_ = 0;
    std::uint64_t totalCasFailures_ = 0;
    std::uint64_t totalAcquires_ = 0;
    std::uint64_t totalReleases_ = 0;
    std::uint64_t totalBackoffEnters_ = 0;
    std::uint64_t totalSibConfirms_ = 0;
    std::uint64_t totalStorms_ = 0;
    std::uint64_t totalTimedAtomics_ = 0;
    std::uint64_t totalRemoteAtomics_ = 0;
    std::uint64_t totalWaitCycles_ = 0;
    std::uint64_t contendedLines_ = 0;
    unsigned peakWaiters_ = 0;
};

/**
 * Null-capable handle over an optional registry — the trace::Tracer
 * idiom. Every hook site costs one pointer test when detached; handles
 * are freely copyable and carried by value in LaunchState and
 * MemorySystem.
 */
class SyncProf {
  public:
    SyncProf() = default;
    explicit SyncProf(SyncProfileRegistry *reg) : reg_(reg) {}

    void
    onAtomic(Addr addr, std::uint64_t warp_key, Cycle now, bool is_cas,
             bool is_acquire, LockTransition t) const
    {
        if (reg_)
            reg_->onAtomic(addr, warp_key, now, is_cas, is_acquire, t);
    }

    void
    onRelease(Addr addr, std::uint64_t holder, Cycle now) const
    {
        if (reg_)
            reg_->onRelease(addr, holder, now);
    }

    void
    onBackoffEnter(std::uint64_t warp_key, Cycle now) const
    {
        if (reg_)
            reg_->onBackoffEnter(warp_key, now);
    }

    void
    onSibConfirm(std::uint64_t warp_key, Cycle now) const
    {
        if (reg_)
            reg_->onSibConfirm(warp_key, now);
    }

    void
    onTimedAtomic(Addr addr, Cycle waited, bool remote) const
    {
        if (reg_)
            reg_->onTimedAtomic(addr, waited, remote);
    }

  private:
    SyncProfileRegistry *reg_ = nullptr;
};

}  // namespace bowsim::syncprof

#endif  // BOWSIM_SYNCPROF_SYNCPROF_HPP
