#include "src/sim/functional.hpp"

#include <bit>

#include "src/common/log.hpp"
#include "src/sim/interpreter.hpp"

namespace bowsim {

namespace {

unsigned
popcount(LaneMask m)
{
    return static_cast<unsigned>(std::popcount(m));
}

}  // namespace

FunctionalExecutor::FunctionalExecutor(const GpuConfig &cfg,
                                       LaunchState &launch)
    : cfg_(cfg), launch_(launch)
{
    const Program &prog = *launch_.prog;
    const unsigned threads_per_cta = launch_.block.count();
    warpsPerCta_ = (threads_per_cta + kWarpSize - 1) / kWarpSize;
    maxResidentCtas_ = maxResidentCtasFor(cfg, prog, threads_per_cta);
    code_ = prog.code.data();
    if (launch_.pcFlags.size() != prog.code.size())
        launch_.buildPcFlags();
    if (launch_.tracker == nullptr)
        panic("functional launch without a lock tracker");
    sms_.resize(cfg.numCores);
    for (FSm &sm : sms_)
        sm.ctas.resize(maxResidentCtas_);
}

bool
FunctionalExecutor::finished() const
{
    return residentCtas_ == 0 && launch_.nextCta >= launch_.ctaEnd;
}

void
FunctionalExecutor::tryLaunchCtas(FSm &sm)
{
    if (launch_.nextCta >= launch_.ctaEnd ||
        sm.validCtas == maxResidentCtas_)
        return;
    for (unsigned s = 0; s < maxResidentCtas_; ++s) {
        if (sm.ctas[s].valid)
            continue;
        if (launch_.nextCta >= launch_.ctaEnd)
            return;
        sm.ctas[s].dispatch(launch_, s, warpsPerCta_);
        ++sm.validCtas;
        ++residentCtas_;
    }
}

void
FunctionalExecutor::onWarpFinished(FSm &sm, Cta &cta)
{
    if (cta.liveWarps == 0)
        panic("warp finished in an already-empty CTA");
    --cta.liveWarps;
    cta.releaseBarrier();
    if (cta.liveWarps == 0) {
        // No pipeline to drain: retire the CTA immediately so the slot
        // is free for the next dispatch.
        cta.warps.clear();
        cta.valid = false;
        --sm.validCtas;
        --residentCtas_;
    }
}

std::uint64_t
FunctionalExecutor::runWarpSlice(unsigned sm_id, Cta &cta, Warp &w)
{
    KernelStats &st = launch_.stats;
    std::uint64_t n = 0;

    LaneAddrs addrs{};  // lane addresses only feed cycle-mode timing
    while (n < kSliceInstructions) {
        const Pc pc = w.stack().pc();
        const Instruction &inst = code_[pc];  // verify(): pc in range
        const LaneMask active = w.stack().activeMask();
        LaneMask exec_mask = active;
        if (inst.guard >= 0) {
            LaneMask pm = w.regs().predMask(inst.guard, active);
            exec_mask = inst.guardNegate ? (active & ~pm) : pm;
        }

        // --- accounting (the cycle-mode issue() counters that remain
        // --- meaningful without timing) -------------------------------
        ++n;
        ++executed_;
        ++st.warpInstructions;
        const unsigned lanes = popcount(active);
        st.threadInstructions += lanes;
        st.activeLaneSum += lanes;
        const std::uint8_t flags = launch_.pcFlags[pc];
        if (flags & LaunchState::kPcSyncRegion)
            st.syncThreadInstructions += lanes;

        bool end_slice = false;
        switch (inst.op) {
          case Opcode::Bra: {
            const LaneMask taken = exec_mask;
            const bool backward = inst.target <= pc;
            if (backward && taken != 0 &&
                (flags & LaunchState::kPcSpinBranch)) {
                // SIBs are counted against the kernel's ground-truth
                // annotations (there is no DDOS unit to predict them),
                // and a spinning warp yields its turn so the warp it
                // waits on can run.
                ++st.sibInstructions;
                end_slice = true;
            }
            w.stack().branch(inst, taken);
            break;
          }
          case Opcode::Exit:
            w.stack().exitLanes(exec_mask);
            break;
          case Opcode::Bar: {
            w.stack().advance();
            w.setAtBarrier(true);
            ++cta.arrivedAtBarrier;
            cta.releaseBarrier();
            end_slice = w.atBarrier();
            break;
          }
          case Opcode::Nop:
          case Opcode::Membar:
            // Memory updates are globally visible at execution, so
            // fences are complete no-ops here.
            w.stack().advance();
            break;
          default:
            // `clock` reads the pseudo-time: one tick per warp
            // instruction, monotonic across the whole device so timed
            // back-off loops observe progress and terminate.
            executeLanes(launch_, sm_id, cta.shared, w, inst, exec_mask,
                         executed_, addrs);
            w.stack().advance();
            break;
        }

        if (w.done()) {
            onWarpFinished(sms_[sm_id], cta);
            break;
        }
        if (end_slice)
            break;
    }
    return n;
}

bool
FunctionalExecutor::runFor(std::uint64_t max_instr)
{
    const std::uint64_t target =
        max_instr > ~std::uint64_t{0} - executed_ ? ~std::uint64_t{0}
                                                  : executed_ + max_instr;
    // The rotation cursor persists across calls so runFor can stop at
    // warp-slice granularity: a full rotation over all resident warps
    // can execute hundreds of slices, far more than one device slice.
    // Rotation order itself stays fixed (SM id, then CTA slot, then
    // warp slot) — only where a call pauses varies, and that is a
    // deterministic function of the runFor call sequence.
    while (!finished() && executed_ < target) {
        if (executed_ >= cfg_.watchdogCycles) {
            abortCause_ = AbortCause::Watchdog;
            simFatal("kernel '", launch_.prog->name, "' exceeded the ",
                     cfg_.watchdogCycles,
                     "-instruction functional watchdog (deadlock?)");
        }
        if (rotSm_ == 0 && rotCta_ == 0 && rotWarp_ == 0) {
            // Rotation boundary: every resident warp had a turn since
            // the last one, so zero accumulated progress while CTAs
            // remain is a barrier deadlock, not a spin (spinning warps
            // execute instructions).
            if (rotationStarted_ && rotationProgress_ == 0) {
                abortCause_ = AbortCause::NoProgress;
                simFatal("kernel '", launch_.prog->name,
                         "' made no progress in functional mode "
                         "(barrier deadlock?)");
            }
            rotationStarted_ = true;
            rotationProgress_ = 0;
        }
        FSm &sm = sms_[rotSm_];
        if (rotCta_ == 0 && rotWarp_ == 0)
            tryLaunchCtas(sm);
        Cta &cta = sm.ctas[rotCta_];
        if (cta.valid && rotWarp_ < cta.warps.size()) {
            Warp &w = *cta.warps[rotWarp_];
            if (!w.done() && !w.atBarrier())
                rotationProgress_ += runWarpSlice(rotSm_, cta, w);
        }
        // Advance the cursor (runWarpSlice may have retired the CTA,
        // clearing cta.warps — hence the slot-count bounds).
        if (++rotWarp_ >= warpsPerCta_) {
            rotWarp_ = 0;
            if (++rotCta_ >= maxResidentCtas_) {
                rotCta_ = 0;
                if (++rotSm_ >= sms_.size())
                    rotSm_ = 0;
            }
        }
    }
    return finished();
}

}  // namespace bowsim
