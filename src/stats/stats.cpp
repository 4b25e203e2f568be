#include "src/stats/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/common/log.hpp"

namespace bowsim {

KernelStats &
KernelStats::operator+=(const KernelStats &o)
{
    cycles += o.cycles;
    warpInstructions += o.warpInstructions;
    threadInstructions += o.threadInstructions;
    syncThreadInstructions += o.syncThreadInstructions;
    sibInstructions += o.sibInstructions;
    activeLaneSum += o.activeLaneSum;
    l1Accesses += o.l1Accesses;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    sharedAccesses += o.sharedAccesses;
    syncMemTransactions += o.syncMemTransactions;
    mem += o.mem;
    outcomes += o.outcomes;
    residentWarpCycles += o.residentWarpCycles;
    backedOffWarpCycles += o.backedOffWarpCycles;
    delayLimitCycleSum += o.delayLimitCycleSum;
    smCycles += o.smCycles;
    energy += o.energy;
    energyNj += o.energyNj;
    staticEnergyNj += o.staticEnergyNj;
    // Stall tables are indexed (sm * stallWarpsPerSm + warp) * cause, so
    // rows from two tables only line up when both sides agree on warps
    // per SM. Folding tables from different core geometries positionally
    // would silently attribute one run's warp rows to another run's
    // warps, so a mismatch is fatal rather than merged.
    if (!o.stallCounts.empty()) {
        if (!stallCounts.empty() && stallWarpsPerSm != o.stallWarpsPerSm) {
            fatal("KernelStats::operator+=: stall tables disagree on "
                  "warps per SM (", stallWarpsPerSm, " vs ",
                  o.stallWarpsPerSm,
                  ") - refusing to merge mismatched core geometries");
        }
        if (stallCounts.size() < o.stallCounts.size())
            stallCounts.resize(o.stallCounts.size(), 0);
        for (std::size_t i = 0; i < o.stallCounts.size(); ++i)
            stallCounts[i] += o.stallCounts[i];
        stallWarpsPerSm = o.stallWarpsPerSm;
    }
    // Same indexing contract for the per-scheduler-unit issue table.
    if (!o.unitIssues.empty()) {
        if (!unitIssues.empty() && unitsPerSm != o.unitsPerSm) {
            fatal("KernelStats::operator+=: unit-issue tables disagree "
                  "on scheduler units per SM (", unitsPerSm, " vs ",
                  o.unitsPerSm, ")");
        }
        if (unitIssues.size() < o.unitIssues.size())
            unitIssues.resize(o.unitIssues.size(), 0);
        for (std::size_t i = 0; i < o.unitIssues.size(); ++i)
            unitIssues[i] += o.unitIssues[i];
        unitsPerSm = o.unitsPerSm;
    }
    // Peaks are high-water marks: element-wise max, never summed.
    if (peakResidentPerSm.size() < o.peakResidentPerSm.size())
        peakResidentPerSm.resize(o.peakResidentPerSm.size(), 0);
    for (std::size_t i = 0; i < o.peakResidentPerSm.size(); ++i) {
        peakResidentPerSm[i] =
            std::max(peakResidentPerSm[i], o.peakResidentPerSm[i]);
    }
    // Device shards accumulate shard-by-shard (launch 2's device d
    // folds into launch 1's device d), same as the enclosing aggregate.
    if (!o.perDevice.empty()) {
        if (perDevice.empty()) {
            perDevice = o.perDevice;
        } else if (perDevice.size() != o.perDevice.size()) {
            fatal("KernelStats::operator+=: device shard counts disagree (",
                  perDevice.size(), " vs ", o.perDevice.size(), ")");
        } else {
            for (std::size_t d = 0; d < perDevice.size(); ++d)
                perDevice[d] += o.perDevice[d];
        }
    }
    return *this;
}

std::array<std::uint64_t, trace::kNumStallCauses>
KernelStats::stallTotals() const
{
    std::array<std::uint64_t, trace::kNumStallCauses> totals{};
    for (std::size_t i = 0; i < stallCounts.size(); ++i)
        totals[i % trace::kNumStallCauses] += stallCounts[i];
    return totals;
}

std::string
stallTable(const KernelStats &s)
{
    if (!s.hasStallBreakdown() || s.stallWarpsPerSm == 0)
        return "";
    constexpr unsigned causes = trace::kNumStallCauses;
    std::ostringstream os;
    os << std::left << std::setw(10) << "warp";
    for (unsigned c = 0; c < causes; ++c) {
        os << std::right << std::setw(14)
           << trace::toString(static_cast<trace::StallCause>(c));
    }
    os << "\n";
    const std::size_t rows = s.stallCounts.size() / causes;
    for (std::size_t row = 0; row < rows; ++row) {
        std::uint64_t row_total = 0;
        for (unsigned c = 0; c < causes; ++c)
            row_total += s.stallCounts[row * causes + c];
        if (row_total == 0)
            continue;
        std::ostringstream label;
        label << "sm" << row / s.stallWarpsPerSm << ".w"
              << row % s.stallWarpsPerSm;
        os << std::left << std::setw(10) << label.str();
        for (unsigned c = 0; c < causes; ++c) {
            os << std::right << std::setw(14)
               << s.stallCounts[row * causes + c];
        }
        os << "\n";
    }
    auto totals = s.stallTotals();
    os << std::left << std::setw(10) << "total";
    for (unsigned c = 0; c < causes; ++c)
        os << std::right << std::setw(14) << totals[c];
    os << "\n";
    return os.str();
}

std::string
summary(const KernelStats &s)
{
    std::ostringstream os;
    os << s.kernel << ": " << s.cycles << " cycles, "
       << s.warpInstructions << " warp insts (IPC "
       << (s.cycles ? static_cast<double>(s.warpInstructions) / s.cycles
                    : 0.0)
       << "), SIMD eff " << s.simdEfficiency() * 100.0 << "%, sync insts "
       << s.syncInstructionFraction() * 100.0 << "%, energy "
       << s.energyNj / 1e6 << " mJ";
    return os.str();
}

}  // namespace bowsim
