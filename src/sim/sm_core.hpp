#ifndef BOWSIM_SIM_SM_CORE_HPP
#define BOWSIM_SIM_SM_CORE_HPP

#include <algorithm>
#include <memory>
#include <string>
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
 * Why a launch died (LaunchAbort::cause), set by the engine where it
 * throws: the two hang checks name themselves; every other SimError (an
 * out-of-bounds access, a kernel that does not fit) is a Fault.
 */
enum class AbortCause {
    Fault,
    /** The cycle watchdog, or functional mode's instruction watchdog. */
    Watchdog,
    /** Functional mode's zero-progress check (a barrier deadlock). */
    NoProgress,
};

/**
 * State shared by all SMs of one device during one kernel launch, in
 * either execution mode. GpuSystem::launch builds one per device
 * (GpuConfig::numDevices): its own CTA dispatch window [nextCta,
 * ctaEnd), warp age counter, statistics shard and, in cycle mode,
 * memory system — prog/grid/block/params, the lock tracker and the
 * functional MemorySpace are shared across devices.
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
     * One past the last CTA this device dispatches. GpuSystem assigns
     * each device a contiguous chunk [nextCta, ctaEnd); %nctaid stays
     * the whole grid.
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

    /**
     * Per-PC flags and hazard masks, built once per launch from the
     * verified program so the issue path neither looks annotations up
     * in std::sets nor re-derives an instruction's class or operands:
     * the sync annotations from Program::sync, then the facts cycle
     * mode reads at every issue.
     */
    static constexpr std::uint8_t kPcSyncRegion = 1;
    static constexpr std::uint8_t kPcWaitCheck = 2;
    static constexpr std::uint8_t kPcLockAcquire = 4;
    static constexpr std::uint8_t kPcSpinBranch = 8;
    /** A memory op that takes the LD/ST port (ld/st/atom, not ld.param). */
    static constexpr std::uint8_t kPcLdst = 16;
    /** Its ALU result lands after kMulDivLatency (mul, mad, div, rem). */
    static constexpr std::uint8_t kPcLongLatency = 32;
    /** The top two bits count the register sources (0..3). */
    static constexpr unsigned kPcRegSrcShift = 6;
    std::vector<std::uint8_t> pcFlags;
    /** The scoreboard masks of each PC's instruction (hazardsOf). */
    std::vector<Hazards> pcHazards;

    /** Builds pcFlags and pcHazards from prog (call after prog is set;
     *  verify() keeps every annotated PC inside the program). */
    void
    buildPcFlags()
    {
        const std::vector<Instruction> &code = prog->code;
        pcFlags.assign(code.size(), 0);
        pcHazards.resize(code.size());
        auto mark = [&](const std::set<Pc> &pcs, std::uint8_t bit) {
            for (Pc pc : pcs)
                pcFlags[pc] |= bit;
        };
        mark(prog->sync.syncRegion, kPcSyncRegion);
        mark(prog->sync.waitChecks, kPcWaitCheck);
        mark(prog->sync.lockAcquires, kPcLockAcquire);
        mark(prog->sync.spinBranches, kPcSpinBranch);
        for (std::size_t pc = 0; pc < code.size(); ++pc) {
            const Instruction &inst = code[pc];
            unsigned reg_srcs = 0;
            for (const Operand &s : inst.src)
                reg_srcs += s.isReg() ? 1 : 0;
            std::uint8_t &f = pcFlags[pc];
            f |= static_cast<std::uint8_t>(reg_srcs << kPcRegSrcShift);
            if (inst.isMemory() && inst.space != MemSpace::Param)
                f |= kPcLdst;
            if (inst.longLatency())
                f |= kPcLongLatency;
            pcHazards[pc] = hazardsOf(inst);
        }
    }
};

/**
 * One resident-CTA slot of an SM, shared by both execution modes:
 * SmCore and each of FunctionalExecutor's virtual SMs hold
 * maxResidentCtasFor() of them. Slot s owns warp slots
 * [s * warpsPerCta, (s + 1) * warpsPerCta).
 */
struct Cta {
    unsigned id = 0;
    std::vector<std::unique_ptr<Warp>> warps;
    std::vector<std::uint8_t> shared;
    unsigned liveWarps = 0;
    unsigned arrivedAtBarrier = 0;
    bool valid = false;

    /**
     * Claims @p launch's next CTA into this free slot, the @p slot-th
     * of its SM: zeroes the shared memory and builds @p warps_per_cta
     * warps, aged in order from launch.warpAgeCounter.
     */
    void dispatch(LaunchState &launch, unsigned slot,
                  unsigned warps_per_cta);

    /**
     * Lifts the CTA barrier once every live warp has arrived: clears
     * the barrier flag of each unfinished warp and resets the arrival
     * count. True when it released. Inline: both engines call it at
     * every barrier arrival and warp exit.
     */
    bool
    releaseBarrier()
    {
        if (liveWarps == 0 || arrivedAtBarrier < liveWarps)
            return false;
        for (auto &w : warps) {
            if (!w->done())
                w->setAtBarrier(false);
        }
        arrivedAtBarrier = 0;
        return true;
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

class SmCore {
  public:
    /**
     * Counts into launch.stats, which every SM of the device shares.
     * Fatal unless cfg has at least one scheduler unit and at most 64
     * warp slots per unit.
     */
    SmCore(unsigned id, const GpuConfig &cfg, LaunchState &launch);

    /**
     * Advances the SM by one cycle: CTA dispatch, memory events and
     * one L1-port step, writebacks, the BOWS window, one issue per
     * scheduler unit (functional global-memory ops run inline at issue),
     * then the per-cycle accounting. True when any unit issued.
     */
    bool cycle(Cycle now);

    /** True while CTAs are resident or still waiting for dispatch. */
    bool
    busy() const
    {
        // CTAs are handed out by the device's dispatcher; this SM stays
        // busy while work remains so it can pick CTAs up as slots free.
        return validCtas_ != 0 || launch_.nextCta < launch_.ctaEnd;
    }

    /**
     * Next-event horizon (docs/PERF.md), read after cycle(now): now + 1
     * while some unit has a ready warp, else the earliest cycle > now at
     * which one can become ready — the minimum over pending ALU
     * writebacks, LD/ST completions and fills, expiring back-off
     * deadlines, and CTA-dispatch availability; kNeverCycle when none is
     * pending (deadlock). The SM sleeps until then, however busy the
     * other SMs are, and its L1 port steps on its own meanwhile
     * (portStep). Being early (over-conservative) only shortens a sleep;
     * reporting later than a real event would desynchronize the
     * simulation, so every state change inside (now, horizon) must trace
     * back to one of the enumerated sources.
     */
    Cycle nextWorkCycle(Cycle now) const;

    /** True while a memory transaction waits for the L1 port. */
    bool portBusy() const { return ldst_.portBusy(); }

    /**
     * The L1-port step of cycle @p now for a sleeping SM (now before its
     * wake), at the SM's place in core order. It changes nothing an
     * issue decision reads, so the cycle's accounting is left to
     * fastForward. Returns the SM's earliest memory event, which can
     * only lower its wake.
     */
    Cycle
    portStep(Cycle now)
    {
        ldst_.portStep(now);
        return ldst_.nextEventCycle(now);
    }

    /**
     * Replays the per-cycle accounting of the idle gap [from, to] in
     * one step: adaptive-window boundaries and the delay-limit sum,
     * smCycles, the stall-breakdown table (each warp's blocking cause is
     * frozen through the gap), and the resident/backed-off warp-cycle
     * sums. Callable only when no unit on this SM can issue anywhere in
     * the gap (to < nextWorkCycle). One gap may arrive as consecutive
     * pieces — a catch-up for a metrics sample, then the rest when the
     * SM wakes — and the pieces add up to the whole gap exactly.
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

    /**
     * Checks the ready masks against their oracle (tests; docs/PERF.md,
     * "Ready-mask arbitration"): each resident warp's ready bit against
     * eligible() and its backed-off bit against its BOWS state, the
     * units' slots, resident masks and age lists against the resident
     * warps, and the earliest back-off deadline against a scan of the
     * resident warps. Empty when everything agrees, else a message
     * naming the first disagreement.
     */
    std::string readyMaskMismatch() const;

  private:
    /** ALU-pipeline writeback event (bucketed by completion cycle). */
    struct WbEvent {
        Warp *warp;
        const Instruction *inst;
    };

    /**
     * One scheduler unit: its warp slots and the bitmasks over them
     * (bit k = warps.bySlot[k]). Each mask mirrors one classifyStall()
     * check and is kept in sync at the events that change it, so ready()
     * is set exactly where eligible() passes (docs/PERF.md, "Ready-mask
     * arbitration").
     */
    struct Unit {
        UnitWarps warps;
        /** Not parked at a barrier. */
        std::uint64_t issuable = 0;
        /** In the BOWS backed-off state. */
        std::uint64_t backedOff = 0;
        /** Backed off with its delay pending (delayUntil > now). */
        std::uint64_t delayed = 0;
        /** The scoreboard clears the next instruction. */
        std::uint64_t sbReady = 0;
        /** The next instruction needs the LD/ST port. */
        std::uint64_t memNext = 0;

        /** The warps passing every gate, given LD/ST canAccept(). */
        std::uint64_t
        ready(bool ldst_free) const
        {
            const std::uint64_t r = issuable & sbReady & ~delayed;
            return ldst_free ? r : r & ~memNext;
        }
    };

    void tryLaunchCtas();
    void retireFinishedCtas();
    void checkBarrier(Cta &cta);
    /** A live warp that classifyStall() finds unblocked (the oracle of
     *  the ready masks, and the eligible-warps gauge). */
    bool eligible(const Warp &w) const;
    void issue(Warp &w, Cycle now);
    bool isSib(Pc pc) const;

    /**
     * The one issue gate: the first check that blocks @p w at now_, or
     * Arbitration when every check passes (eligible() and the stall
     * tables both read it; the unit masks mirror its checks). @p w must
     * be resident and not done. Inline: the stall tables call it per
     * warp per cycle.
     */
    inline trace::StallCause classifyStall(const Warp &w) const;
    /** Per-cycle stall attribution + unit-level stall events (gated). */
    void recordStallCycle(Cycle now);
    /** Bulk stall attribution for @p delta identical idle cycles. */
    void recordStallGap(std::uint64_t delta);
    /**
     * Re-derives every mask bit of a resident warp at now_: at dispatch,
     * at a barrier release, and after an issue that can change its
     * barrier or back-off state (a backed-off winner, Bra, Bar).
     */
    void refreshWarpMask(const Warp &w);
    /** After any other issue: the new PC's sbReady and memNext bits. */
    void refreshPcBits(const Warp &w);
    /**
     * After a writeback or memory completion released one of @p w's
     * registers: a release only clears hazards, so a set sbReady bit
     * stays set and a clear one is re-checked on the current PC.
     */
    void recheckScoreboard(const Warp &w);
    /** Clears the delayed bits whose deadline is at or before @p now and
     *  recomputes delayHorizon_. */
    void expireDelays(Cycle now);

    /** Hot-path instruction fetch, unchecked: verify() keeps every
     *  branch target, reconvergence PC and fall-through in range. */
    const Instruction &fetch(Pc pc) const { return code_[pc]; }

    /**
     * Executes a non-control instruction through the shared interpreter
     * (src/sim/interpreter.hpp) and adds its timing: DDOS setp
     * profiling, then an LD/ST-unit submission or an ALU writeback.
     */
    void execute(Warp &w, const Instruction &inst, LaneMask active,
                 LaneMask exec, std::uint8_t pc_flags, Cycle now);
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
    /** resident_ split by scheduler unit (warp slot % units), with the
     *  arbitration masks; the constructor rejects units wider than 64. */
    std::vector<Unit> units_;
    /** Where a warp slot lives, fixed per SM: no division per issue. */
    struct SlotPlace {
        /** Scheduler unit: slot % units. */
        unsigned unit;
        /** Slot inside the unit, its mask bit: slot / units. */
        unsigned bit;
        /** CTA slot: slot / warpsPerCta_. */
        unsigned cta;
    };
    /** Indexed by warp slot (Warp::id()). */
    std::vector<SlotPlace> placeOf_;
    /** Earliest delayUntil over the units' delayed bits; kNeverCycle
     *  when no delay is pending. */
    Cycle delayHorizon_ = kNeverCycle;

    /**
     * Calendar queue for ALU writebacks: ring of per-cycle buckets
     * indexed by (cycle % size). ALU latencies are small and bounded,
     * so the ring replaces a per-cycle priority_queue with O(1) push
     * and a bulk pop; within one bucket the vector preserves issue
     * order, matching the old (when, seq) heap order exactly. The size
     * is a power of two with a bucket-occupancy word beside it, so the
     * earliest pending writeback is one rotate and one bit scan.
     */
    static constexpr unsigned kWbRingSize = 32;
    static_assert(kAluLatency > 0 && kMulDivLatency > 0,
                  "a writeback must land after the cycle that issued it");
    static_assert(std::max(kAluLatency, kMulDivLatency) < kWbRingSize,
                  "every pending writeback fits the ring");
    std::vector<std::vector<WbEvent>> wbRing_;
    /** Bit b: wbRing_[b] holds a pending writeback. */
    std::uint32_t wbBusy_ = 0;
    static_assert(kWbRingSize == 8 * sizeof(wbBusy_),
                  "one occupancy bit per bucket");
    std::vector<MemCompletion> memCompletions_;

    unsigned maxWarps_;
    unsigned warpsPerCta_ = 0;
    unsigned maxResidentCtas_ = 0;
    /** Instruction stream cached for the unchecked fetch() fast path. */
    const Instruction *code_ = nullptr;
    /** Occupied CTA slots (busy() and dispatch gating). */
    unsigned validCtas_ = 0;
    /** Valid CTAs with no live warps, awaiting drain + retirement. */
    unsigned drainedCtas_ = 0;
    /** Current cycle, for the eligibility checks and mask upkeep. */
    Cycle now_ = 0;
    /** Lifetime issued-instruction count (metrics gauge source). */
    std::uint64_t issuedInstructions_ = 0;
    /** Launch-wide event sink handle (null sink unless a trace is on). */
    trace::Tracer tracer_;
    /** Per-cycle stall attribution into stats.stallCounts (gated). */
    bool stallAccounting_ = false;
};

}  // namespace bowsim

#endif  // BOWSIM_SIM_SM_CORE_HPP
