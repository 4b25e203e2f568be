#ifndef PERFBENCH_SUMMARY_HPP
#define PERFBENCH_SUMMARY_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

/**
 * @file
 * Reduction of sweeps to the benchmark's metrics: order statistics, the
 * simulated per-layer counters summed over a sweep's points, and the
 * BOWS speedup of the fermi suite.
 */

namespace perfbench {

/** Median (mean of the two middle samples for an even count); 0 when
 *  empty. */
double median(std::vector<double> v);

/** Nearest-rank @p p-th percentile: the ceil(p/100 * n)-th smallest
 *  sample. 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Samples strictly beyond the nearest-rank @p p-th percentile of @p n
 *  samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of the percentiles 50, 75, 90, 95 and 99 that leaves at
 * least @p min_beyond of @p n samples beyond it; 0 when none does. The
 * reported tail percentile is the lowest of this over the workloads'
 * per-sweep point counts.
 */
double highestTailPercentile(std::size_t n, std::size_t min_beyond = 10);

/** Simulated counters summed over a sweep's points. Deterministic for a
 *  given workload and seed. */
struct LayerCounters {
    std::uint64_t launches = 0;
    std::uint64_t warpInsts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t smCycles = 0;
    std::uint64_t sibInsts = 0;
    std::uint64_t residentWarpCycles = 0;
    std::uint64_t backedOffWarpCycles = 0;
    std::uint64_t delayLimitCycleSum = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t dramRowActivations = 0;
    std::uint64_t atomics = 0;
    std::uint64_t atomicWaitCycles = 0;
    std::uint64_t icntPackets = 0;
    std::uint64_t linkPackets = 0;
    bowsim::SyncOutcomes outcomes;
    /** Per-cause stall totals, and the resident warp-cycles of the points
     *  that collected them (the shares' denominator). */
    std::array<std::uint64_t, bowsim::trace::kNumStallCauses> stall{};
    std::uint64_t stallResident = 0;
    double energyNj = 0.0;
    /** Litmus outcomes, indexed by harness::SyncOutcome. */
    std::array<std::uint64_t, 4> litmus{};

    void add(const PointResult &r);
};

/**
 * Geometric mean over kernels x base schedulers of cycles(base) /
 * cycles(+BOWS), pairing points "K/S/base" with "K/S/bows". 0 when the
 * sweep has no such pairs.
 */
double bowsSpeedupGmean(const SweepOutcome &sweep);

/** What one sweep contributes to the run's metrics. */
struct SweepSummary {
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::vector<double> pointSeconds;
    unsigned failed = 0;
    /** The first failure message, for the report. */
    std::string firstError;
    std::string resultSha256;
    LayerCounters counters;
    double bowsSpeedup = 0.0;
};

SweepSummary summarize(const SweepOutcome &sweep);

}  // namespace perfbench

#endif  // PERFBENCH_SUMMARY_HPP
