#ifndef BOWSIM_STATS_STATS_HPP
#define BOWSIM_STATS_STATS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/energy/energy_model.hpp"
#include "src/mem/l2_bank.hpp"
#include "src/stats/ddos_accuracy.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * Per-kernel statistics: everything the paper's figures report.
 */

namespace bowsim {

/** Lock-acquire / wait-loop outcome counters (Figures 2 and 12). */
struct SyncOutcomes {
    std::uint64_t lockSuccess = 0;
    std::uint64_t interWarpFail = 0;
    std::uint64_t intraWarpFail = 0;
    std::uint64_t waitExitSuccess = 0;
    std::uint64_t waitExitFail = 0;

    std::uint64_t
    total() const
    {
        return lockSuccess + interWarpFail + intraWarpFail +
               waitExitSuccess + waitExitFail;
    }

    SyncOutcomes &
    operator+=(const SyncOutcomes &o)
    {
        lockSuccess += o.lockSuccess;
        interWarpFail += o.interWarpFail;
        intraWarpFail += o.intraWarpFail;
        waitExitSuccess += o.waitExitSuccess;
        waitExitFail += o.waitExitFail;
        return *this;
    }
};

/** Everything measured over one kernel launch. */
struct KernelStats {
    std::string kernel;
    Cycle cycles = 0;

    // --- instruction counts -------------------------------------------
    std::uint64_t warpInstructions = 0;
    std::uint64_t threadInstructions = 0;
    /** Thread instructions inside annotated synchronization regions. */
    std::uint64_t syncThreadInstructions = 0;
    /** Dynamic executions of (ground-truth or predicted) SIBs. */
    std::uint64_t sibInstructions = 0;

    // --- SIMD utilization ----------------------------------------------
    std::uint64_t activeLaneSum = 0;

    // --- memory ----------------------------------------------------------
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t sharedAccesses = 0;
    /** L1D transactions issued from annotated sync-region instructions. */
    std::uint64_t syncMemTransactions = 0;
    MemSystemStats mem;

    // --- synchronization ---------------------------------------------
    SyncOutcomes outcomes;

    // --- scheduler/BOWS occupancy (Fig. 11) ------------------------------
    /** Sum over cycles of resident unfinished warps. */
    std::uint64_t residentWarpCycles = 0;
    /** Sum over cycles of warps in the backed-off state. */
    std::uint64_t backedOffWarpCycles = 0;
    /** Sum over SM-cycles of the (adaptive) back-off delay limit. */
    std::uint64_t delayLimitCycleSum = 0;
    /** SM-cycles accumulated into delayLimitCycleSum. */
    std::uint64_t smCycles = 0;

    /** Mean back-off delay limit over the run (Fig. 5 trajectory). */
    double
    avgDelayLimit() const
    {
        return smCycles == 0
                   ? 0.0
                   : static_cast<double>(delayLimitCycleSum) / smCycles;
    }

    // --- issue-stall attribution (docs/TRACING.md taxonomy) -------------
    /**
     * Per-warp stall breakdown, collected when a trace sink is attached
     * or GpuConfig::collectStallBreakdown is set (empty otherwise —
     * the per-cycle attribution loop is off the default hot path).
     * Flattened as [(sm * stallWarpsPerSm + warp) * kNumStallCauses +
     * cause]; every resident warp contributes exactly one count per
     * SM-cycle, so the table's grand total equals residentWarpCycles.
     */
    std::vector<std::uint64_t> stallCounts;
    /** Warp slots per SM backing the row indexing above. */
    unsigned stallWarpsPerSm = 0;

    bool hasStallBreakdown() const { return !stallCounts.empty(); }

    /** Per-cause totals over all warps (zeroes when not collected). */
    std::array<std::uint64_t, trace::kNumStallCauses> stallTotals() const;

    // --- profile extras (--profile reports) ----------------------------
    /**
     * Instructions issued per scheduler unit, flattened as
     * [sm * unitsPerSm + unit]. Collected together with stallCounts
     * (same gate) — empty otherwise.
     */
    std::vector<std::uint64_t> unitIssues;
    /** Scheduler units per SM backing the indexing above. */
    unsigned unitsPerSm = 0;

    /**
     * High-water mark of resident warps per SM, always collected (one
     * max per CTA launch, off the per-cycle path). Merged element-wise
     * by max, not sum.
     */
    std::vector<std::uint64_t> peakResidentPerSm;

    // --- energy -----------------------------------------------------------
    EnergyEvents energy;
    double energyNj = 0.0;
    /** Static/leakage energy over smCycles (EnergyCosts::
     *  staticPerSmCyclePj); reported separately from the dynamic
     *  energyNj so normalized-dynamic comparisons are unaffected. */
    double staticEnergyNj = 0.0;

    // --- DDOS accuracy (Table I) --------------------------------------
    DdosAccuracy::Report ddos;

    // --- multi-device shards (docs/PERF.md, "Device sharding") ---------
    /**
     * Per-device stat shards, in device-id order. Populated only on
     * multi-device launches (numDevices > 1): element d holds device
     * d's own counters (its SMs, its L2/DRAM, its link traffic) while
     * the enclosing struct holds the system-wide aggregate. Shard
     * elements never nest further — their own perDevice stays empty.
     */
    std::vector<KernelStats> perDevice;

    // --- derived -----------------------------------------------------------
    double
    simdEfficiency() const
    {
        return warpInstructions == 0
                   ? 0.0
                   : static_cast<double>(activeLaneSum) /
                         (static_cast<double>(warpInstructions) * kWarpSize);
    }

    double
    ipc() const
    {
        return cycles == 0
                   ? 0.0
                   : static_cast<double>(warpInstructions) / cycles;
    }

    /** Fraction of thread instructions that are synchronization overhead. */
    double
    syncInstructionFraction() const
    {
        return threadInstructions == 0
                   ? 0.0
                   : static_cast<double>(syncThreadInstructions) /
                         threadInstructions;
    }

    double
    backedOffFraction() const
    {
        return residentWarpCycles == 0
                   ? 0.0
                   : static_cast<double>(backedOffWarpCycles) /
                         residentWarpCycles;
    }

    /** Simulated wall time at @p clock_mhz. */
    double
    milliseconds(double clock_mhz) const
    {
        return static_cast<double>(cycles) / (clock_mhz * 1e3);
    }

    /** Accumulates another launch, for API callers that launch more
     *  than one kernel. */
    KernelStats &operator+=(const KernelStats &o);
};

/** One-line human-readable summary, for examples and debugging. */
std::string summary(const KernelStats &s);

/**
 * Formatted per-warp stall-breakdown table (one row per warp with any
 * stall cycles, plus a totals row); empty string when not collected.
 */
std::string stallTable(const KernelStats &s);

}  // namespace bowsim

#endif  // BOWSIM_STATS_STATS_HPP
