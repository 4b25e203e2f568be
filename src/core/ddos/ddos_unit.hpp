#ifndef BOWSIM_CORE_DDOS_DDOS_UNIT_HPP
#define BOWSIM_CORE_DDOS_DDOS_UNIT_HPP

#include <memory>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/ddos/hashing.hpp"
#include "src/core/ddos/history.hpp"
#include "src/core/ddos/sib_table.hpp"
#include "src/stats/ddos_accuracy.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * Per-SM DDOS unit (Fig. 8): per-warp path/value history registers (or a
 * single time-shared set, Section IV-B), the shared SIB-PT, and the
 * accuracy bookkeeping behind Table I. The SM core calls onSetp() from
 * the ALU execute stage and onBackwardBranch() from the branch unit.
 */

namespace bowsim {

class DdosUnit {
  public:
    DdosUnit(const DdosConfig &cfg, unsigned max_warps);

    /**
     * Records execution of a setp by @p warp's profiled thread.
     *
     * @param pc   instruction index of the setp
     * @param src0 first source operand value (profiled lane)
     * @param src1 second source operand value (profiled lane)
     * @param now  current cycle (drives time-sharing rotation)
     */
    void onSetp(unsigned warp, Pc pc, Word src0, Word src1, Cycle now);

    /**
     * Records a taken backward branch by @p warp; updates the SIB-PT and
     * accuracy records. Returns true when this branch newly confirmed
     * @p pc as a SIB.
     */
    bool onBackwardBranch(unsigned warp, Pc pc, Cycle now);

    /** True when the warp's history FSM currently says "spinning". */
    bool isSpinning(unsigned warp) const;

    /** True once @p pc is a confirmed spin-inducing branch. */
    bool isSib(Pc pc) const { return table_.isConfirmed(pc); }

    /** Clears per-warp history when a warp slot is recycled. */
    void resetWarp(unsigned warp);

    /** Attaches the launch's event sink (SibConfirm/SibEvict). */
    void
    setTrace(trace::Tracer t, unsigned sm)
    {
        tracer_ = t;
        sm_ = sm;
    }

    const SibTable &table() const { return table_; }
    const DdosAccuracy &accuracy() const { return accuracy_; }

  private:
    /** History register set index for @p warp (time-sharing aware). */
    HistoryRegisters *historyFor(unsigned warp, Cycle now);
    const HistoryRegisters *historyFor(unsigned warp) const;

    void rotateTimeShare(Cycle now);

    DdosConfig cfg_;
    std::vector<HistoryRegisters> histories_;
    SibTable table_;
    DdosAccuracy accuracy_;
    unsigned maxWarps_;
    trace::Tracer tracer_;
    unsigned sm_ = 0;
    /** Warp currently owning the shared set (time-sharing mode). */
    unsigned sharedOwner_ = 0;
    Cycle nextRotate_ = 0;
    bool timeShareStarted_ = false;
};

}  // namespace bowsim

#endif  // BOWSIM_CORE_DDOS_DDOS_UNIT_HPP
