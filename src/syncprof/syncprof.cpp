#include "src/syncprof/syncprof.hpp"

#include <algorithm>
#include <sstream>

#include "src/harness/json.hpp"

namespace bowsim::syncprof {

unsigned
log2Bucket(std::uint64_t v)
{
    if (v == 0)
        return 0;
    unsigned b = 1;
    while (v > 1 && b < kHistBuckets - 1) {
        v >>= 1;
        ++b;
    }
    return b;
}

double
giniIndex(std::vector<std::uint64_t> counts)
{
    if (counts.size() < 2)
        return 0.0;
    std::sort(counts.begin(), counts.end());
    std::uint64_t sum = 0;
    std::uint64_t weighted = 0;  // sum of rank_i * x_i, ranks 1..n
    for (std::size_t i = 0; i < counts.size(); ++i) {
        sum += counts[i];
        weighted += (i + 1) * counts[i];
    }
    if (sum == 0)
        return 0.0;
    const double n = static_cast<double>(counts.size());
    return (2.0 * static_cast<double>(weighted)) /
               (n * static_cast<double>(sum)) -
           (n + 1.0) / n;
}

namespace {

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** Histogram as a JSON array with trailing zero buckets trimmed. */
harness::Json
histJson(const LatencyHist &h)
{
    std::size_t last = kHistBuckets;
    while (last > 0 && h.buckets[last - 1] == 0)
        --last;
    auto arr = harness::Json::array();
    for (std::size_t i = 0; i < last; ++i)
        arr.push(h.buckets[i]);
    return arr;
}

}  // namespace

void
SyncProfileRegistry::stepStorm(Record &r, bool failed)
{
    // The window is one 64-bit word: the shift drops the oldest attempt.
    static_assert(kStormWindow == 64);
    r.window = (r.window << 1) | (failed ? 1u : 0u);
    if (r.windowFill < kStormWindow)
        ++r.windowFill;
    const auto failures =
        static_cast<std::uint64_t>(__builtin_popcountll(r.window));
    if (!r.inStorm) {
        // Enter: full window and >= 90% of it failed.
        if (r.windowFill == kStormWindow &&
            failures * 10 >= 9 * kStormWindow) {
            r.inStorm = true;
            r.stormFromAttempt =
                r.casAttempts >= kStormWindow ? r.casAttempts - kStormWindow
                                              : 0;
            ++r.stormCount;
            ++totalStorms_;
        }
    } else if (failures * 2 < kStormWindow) {
        // Exit: below 50% failed (hysteresis).
        r.inStorm = false;
        if (r.storms.size() < 16)
            r.storms.push_back({r.stormFromAttempt, r.casAttempts});
    }
}

void
SyncProfileRegistry::release(Record &r, std::uint64_t holder, Cycle now)
{
    ++r.releases;
    ++totalReleases_;
    r.holdHist.add(now - r.acquiredAt);
    r.lastReleaser = holder;
    r.releasedAt = now;
    r.pendingHandoff = true;
}

void
SyncProfileRegistry::onAtomic(Addr addr, std::uint64_t warp_key, Cycle now,
                              bool is_cas, bool is_acquire, LockTransition t)
{
    Record &r = addrs_[addr];
    ++r.atomics;
    ++totalAtomics_;
    const bool failed = t.failed();
    if (is_cas) {
        ++r.casAttempts;
        ++totalCasAttempts_;
        if (failed) {
            ++r.casFailures;
            ++totalCasFailures_;
            if (r.casFailures == 1) {
                auto &per_line = contendedPerLine_[lineBase(addr)];
                if (per_line++ == 0)
                    ++contendedLines_;
            }
            lastFailed_[warp_key] = addr;
            if (is_acquire) {
                // Open (or keep open) this warp's acquire session.
                r.sessions.emplace(warp_key, now);
                const auto waiters =
                    static_cast<unsigned>(r.sessions.size());
                r.peakWaiters = std::max(r.peakWaiters, waiters);
                peakWaiters_ = std::max(peakWaiters_, waiters);
            }
        }
        stepStorm(r, failed);
    }
    if (t.kind == LockTransition::Kind::Release)
        release(r, t.holder, now);
    if (t.kind != LockTransition::Kind::Acquire)
        return;
    r.acquiredAt = now;  // the hold runs until the tracker's release
    if (!is_acquire)
        return;  // acquires count .annot acquire CAS sites, as Fig. 2 does
    ++r.acquires;
    ++totalAcquires_;
    ++r.acqByWarp[warp_key];
    auto session = r.sessions.find(warp_key);
    if (session != r.sessions.end()) {
        r.acquireHist.add(now - session->second);
        r.sessions.erase(session);
    } else {
        r.acquireHist.add(0);  // uncontended: acquired first try
    }
    if (r.pendingHandoff) {
        if (r.lastReleaser != warp_key)
            r.handoffHist.add(now - r.releasedAt);
        r.pendingHandoff = false;
    }
}

void
SyncProfileRegistry::onRelease(Addr addr, std::uint64_t holder, Cycle now)
{
    release(addrs_[addr], holder, now);
}

void
SyncProfileRegistry::onBackoffEnter(std::uint64_t warp_key, Cycle)
{
    ++totalBackoffEnters_;
    auto it = lastFailed_.find(warp_key);
    if (it != lastFailed_.end())
        ++addrs_[it->second].backoffEnters;
}

void
SyncProfileRegistry::onSibConfirm(std::uint64_t warp_key, Cycle)
{
    ++totalSibConfirms_;
    auto it = lastFailed_.find(warp_key);
    if (it != lastFailed_.end())
        ++addrs_[it->second].sibConfirms;
}

void
SyncProfileRegistry::onTimedAtomic(Addr addr, Cycle waited, bool remote)
{
    Record &r = addrs_[addr];
    ++r.timedAtomics;
    ++totalTimedAtomics_;
    if (remote) {
        ++r.remoteAtomics;
        ++totalRemoteAtomics_;
    }
    r.waitCycles += waited;
    totalWaitCycles_ += waited;
}

std::vector<const std::pair<const Addr, SyncProfileRegistry::Record> *>
SyncProfileRegistry::ranked() const
{
    std::vector<const std::pair<const Addr, Record> *> order;
    order.reserve(addrs_.size());
    for (const auto &entry : addrs_)
        order.push_back(&entry);
    std::sort(order.begin(), order.end(), [](const auto *a, const auto *b) {
        if (a->second.casFailures != b->second.casFailures)
            return a->second.casFailures > b->second.casFailures;
        if (a->second.casAttempts != b->second.casAttempts)
            return a->second.casAttempts > b->second.casAttempts;
        if (a->second.atomics != b->second.atomics)
            return a->second.atomics > b->second.atomics;
        return a->first < b->first;
    });
    return order;
}

std::vector<AddrSummary>
SyncProfileRegistry::hotAddresses(std::size_t n) const
{
    std::vector<AddrSummary> out;
    for (const auto *entry : ranked()) {
        if (out.size() >= n)
            break;
        const Record &r = entry->second;
        AddrSummary s;
        s.addr = entry->first;
        s.atomics = r.atomics;
        s.casAttempts = r.casAttempts;
        s.casFailures = r.casFailures;
        s.acquires = r.acquires;
        s.releases = r.releases;
        s.backoffEnters = r.backoffEnters;
        s.sibConfirms = r.sibConfirms;
        s.stormCount = r.stormCount;
        s.peakWaiters = r.peakWaiters;
        out.push_back(s);
    }
    return out;
}

Fairness
SyncProfileRegistry::fairnessOf(Addr addr) const
{
    Fairness f;
    auto it = addrs_.find(addr);
    if (it == addrs_.end() || it->second.acqByWarp.empty())
        return f;
    std::vector<std::uint64_t> counts;
    counts.reserve(it->second.acqByWarp.size());
    std::uint64_t sum = 0;
    for (const auto &[warp, acq] : it->second.acqByWarp) {
        counts.push_back(acq);
        sum += acq;
        f.maxAcq = std::max(f.maxAcq, acq);
    }
    f.warps = counts.size();
    f.meanAcq = static_cast<double>(sum) / static_cast<double>(counts.size());
    f.gini = giniIndex(std::move(counts));
    return f;
}

std::vector<StormInterval>
SyncProfileRegistry::stormsOf(Addr addr) const
{
    auto it = addrs_.find(addr);
    if (it == addrs_.end())
        return {};
    std::vector<StormInterval> out = it->second.storms;
    if (it->second.inStorm && out.size() < 16)
        out.push_back({it->second.stormFromAttempt, it->second.casAttempts});
    return out;
}

harness::Json
SyncProfileRegistry::reportJson() const
{
    using harness::Json;
    auto doc = Json::object();
    doc.set("version", 1);
    doc.set("top_n", kTopN);
    doc.set("storm_window", kStormWindow);

    auto totals = Json::object();
    totals.set("tracked_addresses",
               static_cast<std::uint64_t>(addrs_.size()));
    totals.set("contended_lines", contendedLines_);
    totals.set("atomics", totalAtomics_);
    totals.set("cas_attempts", totalCasAttempts_);
    totals.set("cas_failures", totalCasFailures_);
    totals.set("failed_share",
               totalCasAttempts_ == 0
                   ? 0.0
                   : static_cast<double>(totalCasFailures_) /
                         static_cast<double>(totalCasAttempts_));
    totals.set("acquires", totalAcquires_);
    totals.set("releases", totalReleases_);
    totals.set("backoff_enters", totalBackoffEnters_);
    totals.set("sib_confirms", totalSibConfirms_);
    totals.set("storms", totalStorms_);
    totals.set("peak_waiters", peakWaiters_);
    totals.set("timed_atomics", totalTimedAtomics_);
    totals.set("local_atomics", totalTimedAtomics_ - totalRemoteAtomics_);
    totals.set("remote_atomics", totalRemoteAtomics_);
    totals.set("wait_cycles", totalWaitCycles_);
    doc.set("totals", std::move(totals));

    auto arr = Json::array();
    std::size_t emitted = 0;
    for (const auto *entry : ranked()) {
        if (emitted++ >= kTopN)
            break;
        const Addr addr = entry->first;
        const Record &r = entry->second;
        auto a = Json::object();
        a.set("addr", hexAddr(addr));
        a.set("line", hexAddr(lineBase(addr)));
        a.set("atomics", r.atomics);
        a.set("cas_attempts", r.casAttempts);
        a.set("cas_failures", r.casFailures);
        a.set("failed_share",
              r.casAttempts == 0
                  ? 0.0
                  : static_cast<double>(r.casFailures) /
                        static_cast<double>(r.casAttempts));
        a.set("acquires", r.acquires);
        a.set("releases", r.releases);
        a.set("timed_atomics", r.timedAtomics);
        a.set("local_atomics", r.timedAtomics - r.remoteAtomics);
        a.set("remote_atomics", r.remoteAtomics);
        a.set("wait_cycles", r.waitCycles);
        a.set("peak_waiters", r.peakWaiters);
        a.set("backoff_enters", r.backoffEnters);
        a.set("sib_confirms", r.sibConfirms);
        a.set("acquire_latency", histJson(r.acquireHist));
        a.set("hold_cycles", histJson(r.holdHist));
        a.set("handoff_cycles", histJson(r.handoffHist));

        const Fairness f = fairnessOf(addr);
        auto fair = Json::object();
        fair.set("warps", f.warps);
        fair.set("max", f.maxAcq);
        fair.set("mean", f.meanAcq);
        fair.set("gini", f.gini);
        a.set("fairness", std::move(fair));

        a.set("storm_count", r.stormCount);
        auto storms = Json::array();
        for (const StormInterval &s : stormsOf(addr)) {
            auto iv = Json::object();
            iv.set("from", s.fromAttempt);
            iv.set("to", s.toAttempt);
            storms.push(std::move(iv));
        }
        a.set("storms", std::move(storms));
        arr.push(std::move(a));
    }
    doc.set("addresses", std::move(arr));
    return doc;
}

std::string
SyncProfileRegistry::hotReport() const
{
    if (totalAtomics_ == 0)
        return {};
    std::ostringstream os;
    os << "  hot sync objects (top " << std::min<std::size_t>(kTopN, 8)
       << " by failed CAS):\n";
    std::size_t emitted = 0;
    for (const auto *entry : ranked()) {
        if (emitted++ >= std::min<std::size_t>(kTopN, 8))
            break;
        const Addr addr = entry->first;
        const Record &r = entry->second;
        const double share =
            r.casAttempts == 0 ? 0.0
                               : static_cast<double>(r.casFailures) /
                                     static_cast<double>(r.casAttempts);
        const Fairness f = fairnessOf(addr);
        os << "    " << hexAddr(addr) << "  atomics " << r.atomics
           << "  cas " << r.casFailures << "/" << r.casAttempts
           << " failed";
        os << "  share ";
        os.precision(3);
        os << std::fixed << share;
        os.unsetf(std::ios::floatfield);
        os << "  waiters<=" << r.peakWaiters << "  acq " << r.acquires
           << "  gini ";
        os.precision(3);
        os << std::fixed << f.gini;
        os.unsetf(std::ios::floatfield);
        if (r.stormCount > 0)
            os << "  storms " << r.stormCount;
        if (r.backoffEnters > 0)
            os << "  bows " << r.backoffEnters;
        if (r.sibConfirms > 0)
            os << "  sib " << r.sibConfirms;
        os << "\n";
    }
    return os.str();
}

}  // namespace bowsim::syncprof
