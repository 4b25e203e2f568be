#ifndef BOWSIM_CORE_DDOS_SIB_TABLE_HPP
#define BOWSIM_CORE_DDOS_SIB_TABLE_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common/config.hpp"
#include "src/isa/instruction.hpp"

/**
 * @file
 * Spin-Inducing Branch Prediction Table (SIB-PT, Section IV-A). Shared by
 * all warps of one SM. A backward branch taken by a warp whose history
 * FSM says "spinning" gains confidence; taken by a non-spinning warp, it
 * loses confidence (guarding against hash-aliasing noise). At the
 * confidence threshold the branch is confirmed as a SIB and BOWS starts
 * acting on it.
 */

namespace bowsim {

class SibTable {
  public:
    struct Entry {
        unsigned confidence = 0;
        bool confirmed = false;
    };

    explicit SibTable(const DdosConfig &cfg)
        : threshold_(cfg.confidenceThreshold)
    {
    }

    /**
     * A spinning warp took the backward branch at @p pc. Returns the PC
     * of the candidate entry that insertion evicted, if any (for the
     * SibEvict event).
     */
    std::optional<Pc> onSpinningBranch(Pc pc);

    /** A non-spinning warp took the backward branch at @p pc. */
    void onNonSpinningBranch(Pc pc);

    /** True once @p pc has been confirmed as a spin-inducing branch. */
    bool isConfirmed(Pc pc) const;

    /** All tracked entries, for dumps and tests. */
    const std::map<Pc, Entry> &entries() const { return table_; }

    size_t size() const { return table_.size(); }
    unsigned threshold() const { return threshold_; }
    /** High-water mark of concurrent entries (Section IV-B sizing). */
    size_t peakOccupancy() const { return peak_; }

    /** Total confirmation transitions (candidate -> confirmed SIB). */
    std::uint64_t confirms() const { return confirms_; }
    /** Total entries dropped: capacity evictions + confidence decay. */
    std::uint64_t evicts() const { return evicts_; }

  private:
    unsigned threshold_;
    std::map<Pc, Entry> table_;
    size_t peak_ = 0;
    std::uint64_t confirms_ = 0;
    std::uint64_t evicts_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_CORE_DDOS_SIB_TABLE_HPP
