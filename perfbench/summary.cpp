#include "summary.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t
nearestRank(std::size_t n, double p)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
highestTailPercentile(std::size_t n, std::size_t min_beyond)
{
    double best = 0.0;
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
        if (samplesBeyond(n, p) >= min_beyond)
            best = p;
    }
    return best;
}

void
LayerCounters::add(const PointResult &r)
{
    const bowsim::KernelStats &s = r.stats;
    launches += r.launches;
    warpInsts += s.warpInstructions;
    cycles += s.cycles;
    smCycles += s.smCycles;
    sibInsts += s.sibInstructions;
    residentWarpCycles += s.residentWarpCycles;
    backedOffWarpCycles += s.backedOffWarpCycles;
    delayLimitCycleSum += s.delayLimitCycleSum;
    l1Accesses += s.l1Accesses;
    l1Hits += s.l1Hits;
    l2Accesses += s.mem.l2Accesses;
    l2Hits += s.mem.l2Hits;
    dramAccesses += s.mem.dramAccesses;
    dramRowActivations += s.mem.dramRowActivations;
    atomics += s.mem.atomics;
    atomicWaitCycles += s.mem.atomicWaitCycles;
    icntPackets += s.mem.icntPackets;
    linkPackets += s.mem.linkPackets;
    outcomes += s.outcomes;
    if (s.hasStallBreakdown()) {
        const auto totals = s.stallTotals();
        for (std::size_t c = 0; c < stall.size(); ++c)
            stall[c] += totals[c];
        stallResident += s.residentWarpCycles;
    }
    energyNj += s.energyNj;
    if (r.litmusCell && r.ok)
        ++litmus[static_cast<std::size_t>(r.litmus.outcome)];
}

double
bowsSpeedupGmean(const SweepOutcome &sweep)
{
    std::map<std::string, const PointResult *> by_id;
    for (const PointResult &r : sweep.points)
        by_id[r.id] = &r;
    const std::string suffix = "/bows";
    double log_sum = 0.0;
    unsigned pairs = 0;
    for (const PointResult &r : sweep.points) {
        if (r.id.size() <= suffix.size() ||
            r.id.compare(r.id.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        auto base = by_id.find(r.id.substr(0, r.id.size() - suffix.size()) +
                               "/base");
        if (base == by_id.end() || !r.ok || !base->second->ok ||
            r.stats.cycles == 0 || base->second->stats.cycles == 0)
            continue;
        log_sum += std::log(static_cast<double>(base->second->stats.cycles) /
                            static_cast<double>(r.stats.cycles));
        ++pairs;
    }
    return pairs == 0 ? 0.0 : std::exp(log_sum / pairs);
}

SweepSummary
summarize(const SweepOutcome &sweep)
{
    SweepSummary s;
    s.setupSeconds = sweep.setupSeconds;
    s.wallSeconds = sweep.wallSeconds;
    s.cpuSeconds = sweep.cpuSeconds;
    s.failed = sweep.failed;
    s.resultSha256 = sweep.resultSha256;
    for (const PointResult &r : sweep.points) {
        s.pointSeconds.push_back(r.seconds);
        s.counters.add(r);
        if (!r.ok && s.firstError.empty())
            s.firstError = r.id + ": " + r.error;
    }
    s.bowsSpeedup = bowsSpeedupGmean(sweep);
    return s;
}

}  // namespace perfbench
