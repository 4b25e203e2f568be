#ifndef BOWSIM_SIM_FUNCTIONAL_HPP
#define BOWSIM_SIM_FUNCTIONAL_HPP

#include <vector>

#include "src/arch/warp.hpp"
#include "src/common/config.hpp"
#include "src/sim/sm_core.hpp"

/**
 * @file
 * Fast-functional execution (ExecMode::Functional): ISA semantics only,
 * interpreted warp-at-a-time against functional memory with IPDOM
 * reconvergence. No scoreboard, pipeline, cache or DRAM state exists;
 * KernelStats::cycles stays 0 and only instruction/outcome counters are
 * collected.
 *
 * Determinism contract (docs/PERF.md, "Execution modes"):
 *  - CTAs dispatch to virtual SMs with exactly the cycle-mode residency
 *    limits (maxResidentCtasFor), greedily in SM-id order.
 *  - Execution proceeds in rotations: SMs in id order, CTA slots and
 *    warp slots in index order. Every memory operation — atomics
 *    included — therefore applies in one fixed SM-id/warp-slot order,
 *    independent of host threading or wall-clock timing.
 *  - Bounded fairness: a warp's turn ends after kSliceInstructions
 *    instructions, or earlier at a barrier, at warp exit, or when it
 *    takes an annotated spin-inducing branch backward. A spinning warp
 *    thus burns at most one slice per rotation while every other
 *    resident warp — in particular the lock holder — gets its own
 *    slice, so spin loops always make forward progress.
 *  - `clock` reads a pseudo-clock that advances by one per warp
 *    instruction, keeping timed back-off loops finite.
 */

namespace bowsim {

class FunctionalExecutor {
  public:
    /** A warp's maximum instructions per rotation turn. */
    static constexpr std::uint64_t kSliceInstructions = 16;

    FunctionalExecutor(const GpuConfig &cfg, LaunchState &launch);

    /**
     * Runs until at least @p max_instr more warp instructions execute
     * (rounded up to whole warp slices) or the kernel finishes.
     * Returns finished(). Functional launches take turns across
     * devices with one runFor slice each, a lone device included.
     */
    bool runFor(std::uint64_t max_instr);

    /** True when every CTA has been dispatched and completed. */
    bool finished() const;

    /** Warp instructions executed so far (the runFor odometer). */
    std::uint64_t instructionsExecuted() const { return executed_; }

    /** Why runFor threw: one of the two hang checks, else a Fault. */
    AbortCause abortCause() const { return abortCause_; }

  private:
    struct FSm {
        std::vector<Cta> ctas;
        unsigned validCtas = 0;
    };

    void tryLaunchCtas(FSm &sm);
    void onWarpFinished(FSm &sm, Cta &cta);
    /** Runs one warp turn; returns instructions executed. */
    std::uint64_t runWarpSlice(unsigned sm_id, Cta &cta, Warp &w);

    const GpuConfig &cfg_;
    LaunchState &launch_;
    std::vector<FSm> sms_;
    unsigned warpsPerCta_ = 0;
    unsigned maxResidentCtas_ = 0;
    /** The program's instructions, fetched unchecked by PC. */
    const Instruction *code_ = nullptr;
    /** Total warp instructions executed (also the pseudo-clock). */
    std::uint64_t executed_ = 0;
    /** CTAs resident across all virtual SMs (finished() gate). */
    unsigned residentCtas_ = 0;
    /** Rotation cursor (SM, CTA slot, warp slot), persistent across
     *  runFor calls so each call pauses at slice granularity. */
    std::size_t rotSm_ = 0;
    unsigned rotCta_ = 0;
    unsigned rotWarp_ = 0;
    /** Instructions executed since the last rotation boundary (the
     *  zero-progress deadlock check). */
    std::uint64_t rotationProgress_ = 0;
    bool rotationStarted_ = false;
    AbortCause abortCause_ = AbortCause::Fault;
};

}  // namespace bowsim

#endif  // BOWSIM_SIM_FUNCTIONAL_HPP
