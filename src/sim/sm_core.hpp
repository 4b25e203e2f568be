#ifndef BOWSIM_SIM_SM_CORE_HPP
#define BOWSIM_SIM_SM_CORE_HPP

#include <algorithm>
#include <memory>
#include <vector>

#include "src/arch/warp.hpp"
#include "src/common/config.hpp"
#include "src/core/bows/backoff.hpp"
#include "src/core/ddos/ddos_unit.hpp"
#include "src/isa/program.hpp"
#include "src/mem/lock_tracker.hpp"
#include "src/mem/memory_space.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sim/ldst_unit.hpp"
#include "src/stats/stats.hpp"
#include "src/syncprof/syncprof.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * One streaming multiprocessor: resident CTAs/warps, per-unit warp
 * schedulers with BOWS arbitration (Fig. 8), functional execution at
 * issue, the LD/ST unit, and the DDOS unit hooked into setp/branch
 * execution.
 */

namespace bowsim {

/**
 * State shared by all SMs of one device during one kernel launch. On a
 * multi-device system (GpuConfig::numDevices > 1) each device owns one
 * LaunchState: its own CTA dispatch window [nextCta, ctaEnd), warp age
 * counter, statistics shard and memory system — prog/grid/block/params
 * and the functional MemorySpace are shared across devices.
 */
struct LaunchState {
    const Program *prog = nullptr;
    Dim3 grid;
    Dim3 block;
    std::vector<Word> params;
    MemorySpace *mem = nullptr;
    MemorySystem *memsys = nullptr;
    SpinDetect spinDetect = SpinDetect::Ddos;
    /**
     * The launch's one lock tracker, shared by every device (required).
     * Lock words are functional state in the shared MemorySpace, so
     * ownership must be tracked system-wide; warpKeyBase keeps the
     * owner keys globally unique.
     */
    LockTracker *tracker = nullptr;
    KernelStats stats;
    /** Event sink for this launch; the default Tracer is the null sink. */
    trace::Tracer trace;
    /** Sync-contention profiler handle (docs/SYNC.md); default null. The
     *  registry, like the system lock tracker, is shared by all devices. */
    syncprof::SyncProf sync;
    /** Next CTA index awaiting an SM. */
    unsigned nextCta = 0;
    /**
     * One past the last CTA this device dispatches (0 = unset: the whole
     * grid, the single-device default). GpuSystem assigns each device a
     * contiguous chunk [nextCta, ctaEnd).
     */
    unsigned ctaEnd = 0;
    /** Monotonic warp age counter (GTO's age ordering), device-local. */
    std::uint64_t warpAgeCounter = 0;
    /** This device's id (trace events, %smid stays SM-local). */
    unsigned deviceId = 0;
    /** Folded into lock-owner warp keys so they stay unique across
     *  devices' independent age counters (deviceId << 48). */
    std::uint64_t warpKeyBase = 0;

    /** Lock-owner and sync-profiler key of @p w: the device-wide age
     *  offset by the device's key base — globally unique and nonzero. */
    std::uint64_t
    warpKey(const Warp &w) const
    {
        return warpKeyBase + w.age() + 1;
    }

    /** Per-PC sync-annotation flags, bit-packed from Program::sync once
     *  at launch so the issue path avoids std::set lookups. */
    static constexpr std::uint8_t kPcSyncRegion = 1;
    static constexpr std::uint8_t kPcWaitCheck = 2;
    static constexpr std::uint8_t kPcLockAcquire = 4;
    static constexpr std::uint8_t kPcSpinBranch = 8;
    std::vector<std::uint8_t> pcFlags;

    /** Builds pcFlags from prog's annotations (call after prog is set). */
    void
    buildPcFlags()
    {
        pcFlags.assign(prog->code.size(), 0);
        auto mark = [&](const std::set<Pc> &pcs, std::uint8_t bit) {
            for (Pc pc : pcs) {
                if (pc < pcFlags.size())
                    pcFlags[pc] |= bit;
            }
        };
        mark(prog->sync.syncRegion, kPcSyncRegion);
        mark(prog->sync.waitChecks, kPcWaitCheck);
        mark(prog->sync.lockAcquires, kPcLockAcquire);
        mark(prog->sync.spinBranches, kPcSpinBranch);
    }
};

/**
 * CTA residency limit for one SM: the minimum over the CTA cap and the
 * thread, register, shared-memory and warp-slot budgets. Shared by
 * SmCore and the functional executor so both modes dispatch CTAs with
 * identical occupancy. Fatal when the kernel does not fit at all.
 */
unsigned maxResidentCtasFor(const GpuConfig &cfg, const Program &prog,
                            unsigned threads_per_cta);

class SmCore : private IssueGate {
  public:
    /**
     * Counts into launch.stats, which every SM of the device shares.
     * Fatal unless cfg has at least one scheduler unit and at most 64
     * warp slots per unit.
     */
    SmCore(unsigned id, const GpuConfig &cfg, LaunchState &launch);

    /**
     * Advances the SM by one cycle: CTA dispatch, writebacks, the BOWS
     * window, one issue per scheduler unit (functional global-memory
     * ops and memory-system requests run inline, at issue and at the
     * L1 port), then the per-cycle accounting. True when any unit
     * issued.
     */
    bool cycle(Cycle now);

    /** True while CTAs are resident or still waiting for dispatch. */
    bool busy() const;

    /**
     * Next-event horizon (docs/PERF.md): assuming cycle(now) just ran
     * and issued nothing, the earliest cycle > now at which this SM can
     * make progress — the minimum over pending ALU writebacks, LD/ST
     * events, expiring back-off deadlines, and CTA-dispatch
     * availability; kNeverCycle when none is pending (deadlock). Being
     * early (over-conservative) only shrinks a skip; reporting later
     * than a real event would desynchronize the simulation, so every
     * state change inside (now, horizon) must trace back to one of the
     * enumerated sources.
     */
    Cycle nextWorkCycle(Cycle now) const;

    /**
     * Replays the per-cycle accounting of the idle gap [from, to] in
     * one step: adaptive-window boundaries and the delay-limit sum,
     * smCycles, CAWA active/stall counters, the stall-breakdown table
     * (each warp's blocking cause is frozen through the gap), and the
     * resident/backed-off warp-cycle sums. Callable only when no unit
     * on this SM can issue anywhere in the gap (to < nextWorkCycle).
     */
    void fastForward(Cycle from, Cycle to);

    const DdosUnit &ddos() const { return *ddos_; }
    const BackoffUnit &backoff() const { return backoff_; }
    const LdstUnit &ldst() const { return ldst_; }
    unsigned id() const { return id_; }
    /** Owning device (multi-device stat/idle attribution). */
    unsigned device() const { return launch_.deviceId; }

    // --- metrics-sampler gauges (SM-private, settled at the end of a
    // --- cycle; see src/metrics/sampler.cpp) --------------------------
    /** Resident unfinished warps right now. */
    std::size_t residentWarps() const { return resident_.size(); }
    /** Resident warps passing every issue gate this cycle. */
    unsigned eligibleWarpCount() const;
    /** Resident warps the spin-detection mechanism flags as spinning. */
    unsigned spinningWarpCount() const;
    /** Instructions issued by this SM so far (always collected). */
    std::uint64_t issuedInstructions() const { return issuedInstructions_; }

  private:
    struct Cta {
        unsigned id = 0;
        std::vector<std::unique_ptr<Warp>> warps;
        std::vector<std::uint8_t> shared;
        unsigned liveWarps = 0;
        unsigned arrivedAtBarrier = 0;
        bool valid = false;
    };

    /** ALU-pipeline writeback event (bucketed by completion cycle). */
    struct WbEvent {
        Warp *warp;
        const Instruction *inst;
    };

    void tryLaunchCtas();
    void retireFinishedCtas();
    void checkBarrier(Cta &cta);
    /** IssueGate: a live warp that classifyStall() finds unblocked. */
    bool eligible(Warp &w) const override;
    void issue(Warp &w, Cycle now);
    bool isSib(Pc pc) const;

    /**
     * The one issue gate: the first check that blocks @p w at now_, or
     * Arbitration when every check passes (eligible() and the stall
     * tables both read it). @p w must be resident and not done. Inline
     * so eligible(), the hottest gate call, pays no extra call.
     */
    inline trace::StallCause classifyStall(Warp &w) const;
    /** Per-cycle stall attribution + unit-level stall events (gated). */
    void recordStallCycle(Cycle now);
    /** Bulk stall attribution for @p delta identical idle cycles. */
    void recordStallGap(std::uint64_t delta);
    /** Recomputes one unit's masks and positions from its vector. */
    void rebuildUnitMask(unsigned u);
    /** Re-derives a resident warp's barrier/backed-off mask bits. */
    void refreshWarpMask(const Warp &w);

    /** Hot-path instruction fetch. Launch-validated programs always have
     *  in-range PCs; anything else falls back to the checked accessor so
     *  malformed hand-built programs fail exactly as before. */
    const Instruction &
    fetch(Pc pc) const
    {
        return pc < codeSize_ ? code_[pc] : launch_.prog->at(pc);
    }

    /**
     * Executes a non-control instruction through the shared interpreter
     * (src/sim/interpreter.hpp) and adds its timing: DDOS setp
     * profiling, then an LD/ST-unit submission or an ALU writeback.
     */
    void execute(Warp &w, const Instruction &inst, LaneMask active,
                 LaneMask exec, bool sync, Cycle now);
    void onWarpFinished(Warp &w);

    unsigned id_;
    const GpuConfig &cfg_;
    LaunchState &launch_;
    /** The launch-wide aggregate (launch_.stats). */
    KernelStats &stats_;
    LdstUnit ldst_;
    std::vector<std::unique_ptr<Scheduler>> schedulers_;
    std::unique_ptr<DdosUnit> ddos_;
    BackoffUnit backoff_;

    std::vector<Cta> ctas_;
    /** Resident unfinished warps (refreshed as CTAs come and go). */
    std::vector<Warp *> resident_;
    /** resident_ filtered by scheduler unit, maintained incrementally. */
    std::vector<std::vector<Warp *>> unitResident_;
    /**
     * Active-warp bitmasks mirroring unitResident_ (bit k = position k
     * of unit u's vector): not-at-barrier and BOWS backed-off. Kept in
     * sync at warp launch/finish, barrier entry/exit, and back-off
     * transitions; the constructor rejects units wider than 64 slots.
     */
    std::vector<std::uint64_t> unitIssuable_;
    std::vector<std::uint64_t> unitBackedOff_;
    /** Warp slot -> position inside its unit's resident vector. */
    std::vector<std::uint32_t> unitPosOf_;

    /**
     * Calendar queue for ALU writebacks: ring of per-cycle buckets
     * indexed by (cycle % size). ALU latencies are small and bounded,
     * so the ring replaces a per-cycle priority_queue with O(1) push
     * and a bulk pop; within one bucket the vector preserves issue
     * order, matching the old (when, seq) heap order exactly.
     */
    static constexpr unsigned kWbRingSize =
        std::max(kAluLatency, kMulDivLatency) + 1;
    static_assert(kAluLatency > 0 && kMulDivLatency > 0,
                  "a writeback must land after the cycle that issued it");
    std::vector<std::vector<WbEvent>> wbRing_;
    std::uint64_t wbPending_ = 0;
    std::vector<MemCompletion> memCompletions_;

    unsigned maxWarps_;
    unsigned warpsPerCta_ = 0;
    unsigned maxResidentCtas_ = 0;
    /** Launch geometry cached out of the per-cycle paths. */
    unsigned blockThreads_ = 0;
    /** One past this device's last CTA (%nctaid stays the whole grid). */
    unsigned ctaEnd_ = 0;
    /** Instruction stream cached for the unchecked fetch() fast path. */
    const Instruction *code_ = nullptr;
    Pc codeSize_ = 0;
    /** Occupied CTA slots (busy() and dispatch gating). */
    unsigned validCtas_ = 0;
    /** Valid CTAs with no live warps, awaiting drain + retirement. */
    unsigned drainedCtas_ = 0;
    /** Current cycle, for eligibility checks reached via IssueGate. */
    Cycle now_ = 0;
    /** Lifetime issued-instruction count (metrics gauge source). */
    std::uint64_t issuedInstructions_ = 0;
    /** Per-warp active/stall counters only feed CAWA's criticality. */
    bool cawaAccounting_ = false;
    /** Launch-wide event sink handle (null sink unless a trace is on). */
    trace::Tracer tracer_;
    /** Per-cycle stall attribution into stats.stallCounts (gated). */
    bool stallAccounting_ = false;
    /** Per-cycle spinning-warp attribution (GpuConfig::collectSpinCycles). */
    bool spinAccounting_ = false;
};

}  // namespace bowsim

#endif  // BOWSIM_SIM_SM_CORE_HPP
