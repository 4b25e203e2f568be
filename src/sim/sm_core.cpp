#include "src/sim/sm_core.hpp"

#include <algorithm>
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

unsigned
firstLane(LaneMask m)
{
    return static_cast<unsigned>(std::countr_zero(m));
}

}  // namespace

unsigned
maxResidentCtasFor(const GpuConfig &cfg, const Program &prog,
                   unsigned threads_per_cta)
{
    if (threads_per_cta == 0)
        fatal("kernel launch with an empty block");
    const unsigned max_warps = cfg.maxWarpsPerCore();
    const unsigned warps_per_cta =
        (threads_per_cta + kWarpSize - 1) / kWarpSize;
    unsigned by_threads = cfg.maxThreadsPerCore / threads_per_cta;
    unsigned regs_per_cta = prog.numRegs * threads_per_cta;
    unsigned by_regs = regs_per_cta == 0
                           ? kMaxCtasPerCore
                           : cfg.numRegsPerCore / regs_per_cta;
    unsigned by_shared = prog.sharedBytes == 0
                             ? kMaxCtasPerCore
                             : kSharedMemPerCore / prog.sharedBytes;
    unsigned by_warps = max_warps / warps_per_cta;
    unsigned max_ctas = std::min({kMaxCtasPerCore, by_threads, by_regs,
                                  by_shared, by_warps});
    if (max_ctas == 0)
        simFatal("kernel '", prog.name, "' does not fit on an SM (",
                 threads_per_cta, " threads/CTA)");
    return max_ctas;
}

SmCore::SmCore(unsigned id, const GpuConfig &cfg, LaunchState &launch)
    : id_(id), cfg_(cfg), launch_(launch), stats_(launch.stats),
      ldst_(cfg, id, *launch.memsys, stats_),
      backoff_(cfg.bows), maxWarps_(cfg.maxWarpsPerCore())
{
    // Warp slots are distributed round-robin over the units, so unit u
    // holds at most ceil(maxWarps_/units) warps, which must fit the
    // 64-bit arbitration masks.
    const unsigned units = cfg.numSchedulersPerCore;
    if (units == 0 || (maxWarps_ + units - 1) / units > 64)
        fatal("numSchedulersPerCore = ", units, " and maxThreadsPerCore = ",
              cfg.maxThreadsPerCore, ": an SM needs at least one scheduler",
              " unit and at most 64 warp slots per unit");
    for (unsigned s = 0; s < units; ++s)
        schedulers_.push_back(makeScheduler(cfg));
    unitResident_.resize(units);
    unitIssuable_.assign(units, 0);
    unitBackedOff_.assign(units, 0);
    unitPosOf_.assign(maxWarps_, 0);
    ddos_ = std::make_unique<DdosUnit>(cfg.ddos, maxWarps_);

    wbRing_.resize(kWbRingSize);

    blockThreads_ = launch_.block.count();
    ctaEnd_ = launch_.ctaEnd != 0 ? launch_.ctaEnd : launch_.grid.count();
    code_ = launch_.prog->code.data();
    codeSize_ = static_cast<Pc>(launch_.prog->code.size());
    if (launch_.pcFlags.size() != launch_.prog->code.size())
        launch_.buildPcFlags();  // idempotent; cores are built serially
    if (launch_.tracker == nullptr)
        panic("launch without a lock tracker");
    cawaAccounting_ = cfg.scheduler == SchedulerKind::CAWA;
    spinAccounting_ = cfg.collectSpinCycles;

    // Tracing and stall attribution ride the same launch-wide handle.
    // Sizing the stall table here (cores are built serially) keeps
    // Gpu::launch() agnostic and covers direct SmCore construction.
    tracer_ = launch_.trace;
    stallAccounting_ = tracer_.enabled() || cfg.collectStallBreakdown;
    if (stallAccounting_) {
        KernelStats &st = stats_;
        st.stallWarpsPerSm = maxWarps_;
        std::size_t need = static_cast<std::size_t>(cfg.numCores) *
                           maxWarps_ * trace::kNumStallCauses;
        if (st.stallCounts.size() < need)
            st.stallCounts.resize(need, 0);
        // Per-scheduler-unit issue distribution (--profile) rides the
        // same gate: one increment per issue, off the default hot path.
        st.unitsPerSm = static_cast<unsigned>(schedulers_.size());
        std::size_t unit_need = static_cast<std::size_t>(cfg.numCores) *
                                schedulers_.size();
        if (st.unitIssues.size() < unit_need)
            st.unitIssues.resize(unit_need, 0);
    }
    // Peak residency is one max per CTA launch — cheap enough to keep
    // always-on (profile reports and metrics need it unconditionally).
    if (stats_.peakResidentPerSm.size() < cfg.numCores)
        stats_.peakResidentPerSm.resize(cfg.numCores, 0);
    ldst_.setTrace(tracer_);
    ddos_->setTrace(tracer_, id_);
    backoff_.setTrace(tracer_, id_);

    const Program &prog = *launch_.prog;
    unsigned threads_per_cta = blockThreads_;
    warpsPerCta_ = (threads_per_cta + kWarpSize - 1) / kWarpSize;
    maxResidentCtas_ = maxResidentCtasFor(cfg, prog, threads_per_cta);
    ctas_.resize(maxResidentCtas_);
}

bool
SmCore::busy() const
{
    // CTAs are handed out by the device's dispatcher; this SM stays busy
    // while work remains so it can pick CTAs up as slots free.
    return validCtas_ != 0 || launch_.nextCta < ctaEnd_;
}

void
SmCore::tryLaunchCtas()
{
    if (launch_.nextCta >= ctaEnd_ || validCtas_ == maxResidentCtas_)
        return;
    const Program &prog = *launch_.prog;
    unsigned total_ctas = ctaEnd_;
    for (Cta &slot : ctas_) {
        if (slot.valid)
            continue;
        if (launch_.nextCta >= total_ctas)
            return;
        unsigned cta_id = launch_.nextCta++;
        slot.valid = true;
        ++validCtas_;
        slot.id = cta_id;
        slot.shared.assign(prog.sharedBytes, 0);
        slot.warps.clear();
        slot.arrivedAtBarrier = 0;

        unsigned threads = blockThreads_;
        unsigned cta_index =
            static_cast<unsigned>(&slot - ctas_.data());
        const unsigned units = static_cast<unsigned>(schedulers_.size());
        for (unsigned wi = 0; wi < warpsPerCta_; ++wi) {
            unsigned lanes = std::min(kWarpSize, threads - wi * kWarpSize);
            LaneMask mask = lanes == kWarpSize
                                ? kFullMask
                                : ((LaneMask{1} << lanes) - 1);
            unsigned warp_slot = cta_index * warpsPerCta_ + wi;
            auto warp = std::make_unique<Warp>(
                warp_slot, cta_id, wi, launch_.warpAgeCounter++,
                prog.numRegs, prog.numPreds, mask);
            ddos_->resetWarp(warp_slot);
            resident_.push_back(warp.get());
            const unsigned unit_id = warp_slot % units;
            auto &unit = unitResident_[unit_id];
            const std::uint64_t bit = std::uint64_t{1} << unit.size();
            unitPosOf_[warp_slot] = static_cast<std::uint32_t>(unit.size());
            unitIssuable_[unit_id] |= bit;
            unitBackedOff_[unit_id] &= ~bit;
            unit.push_back(warp.get());
            slot.warps.push_back(std::move(warp));
        }
        slot.liveWarps = warpsPerCta_;
        stats_.peakResidentPerSm[id_] = std::max<std::uint64_t>(
            stats_.peakResidentPerSm[id_], resident_.size());
    }
}

void
SmCore::retireFinishedCtas()
{
    if (drainedCtas_ == 0)
        return;
    for (Cta &cta : ctas_) {
        if (!cta.valid || cta.liveWarps != 0)
            continue;
        bool drained = true;
        for (const auto &w : cta.warps) {
            if (!w->scoreboard().idle() || w->ldstOutstanding() != 0) {
                drained = false;
                break;
            }
        }
        if (!drained)
            continue;
        for (const auto &w : cta.warps) {
            for (auto &sched : schedulers_)
                sched->notifyFinished(w.get());
        }
        cta.warps.clear();
        cta.valid = false;
        --validCtas_;
        --drainedCtas_;
    }
}

void
SmCore::checkBarrier(Cta &cta)
{
    if (cta.liveWarps == 0 || cta.arrivedAtBarrier < cta.liveWarps)
        return;
    for (auto &w : cta.warps) {
        if (!w->done()) {
            w->setAtBarrier(false);
            refreshWarpMask(*w);
            tracer_.emit(now_, id_, static_cast<std::int32_t>(w->id()),
                         trace::EventKind::BarrierExit);
        }
    }
    cta.arrivedAtBarrier = 0;
}

bool
SmCore::isSib(Pc pc) const
{
    switch (launch_.spinDetect) {
      case SpinDetect::Oracle:
        return (launch_.pcFlags[pc] & LaunchState::kPcSpinBranch) != 0;
      case SpinDetect::Ddos:
        return ddos_->isSib(pc);
    }
    return false;
}

inline trace::StallCause
SmCore::classifyStall(Warp &w) const
{
    if (w.atBarrier())
        return trace::StallCause::Barrier;
    if (!backoff_.mayIssue(w, now_))
        return trace::StallCause::Backoff;
    const Instruction &inst = fetch(w.stack().pc());
    if (!w.scoreboard().canIssue(inst))
        return trace::StallCause::Scoreboard;
    if (inst.isMemory() && inst.space != MemSpace::Param &&
        !ldst_.canAccept()) {
        return trace::StallCause::PipelineBusy;
    }
    return trace::StallCause::Arbitration;
}

bool
SmCore::eligible(Warp &w) const
{
    return !w.done() && classifyStall(w) == trace::StallCause::Arbitration;
}

unsigned
SmCore::eligibleWarpCount() const
{
    unsigned n = 0;
    for (Warp *w : resident_)
        n += eligible(*w) ? 1 : 0;
    return n;
}

unsigned
SmCore::spinningWarpCount() const
{
    unsigned n = 0;
    for (const Warp *w : resident_)
        n += ddos_->isSpinning(w->id()) ? 1 : 0;
    return n;
}

void
SmCore::execute(Warp &w, const Instruction &inst, LaneMask active,
                LaneMask exec, bool sync, Cycle now)
{
    // DDOS profiles the first active thread of the warp at every setp,
    // guard or no guard.
    if (inst.op == Opcode::Setp && active != 0) {
        const unsigned lane = firstLane(active);
        ddos_->onSetp(w.id(), w.stack().pc(),
                      readOperand(launch_, id_, w, inst.src[0], lane),
                      readOperand(launch_, id_, w, inst.src[1], lane), now);
    }
    const bool memory = inst.op == Opcode::St || inst.op == Opcode::Atom ||
                        (inst.op == Opcode::Ld &&
                         inst.space != MemSpace::Param);
    if (memory && exec == 0)
        return;  // fully predicated off: no transaction, no hazard

    LaneAddrs addrs{};
    executeLanes(launch_, id_, ctas_.at(w.id() / warpsPerCta_).shared, w,
                 inst, exec, now, addrs);
    if (memory) {
        ldst_.submit(&w, inst, addrs, exec, sync, now);
        if (inst.dst.valid())
            w.scoreboard().reserve(inst);
    } else if (inst.dst.valid()) {
        w.scoreboard().reserve(inst);
        const unsigned latency =
            inst.longLatency() ? kMulDivLatency : kAluLatency;
        wbRing_[(now + latency) % kWbRingSize].push_back(WbEvent{&w, &inst});
        ++wbPending_;
    }
}

void
SmCore::issue(Warp &w, Cycle now)
{
    const Pc pc = w.stack().pc();
    const Instruction &inst = fetch(pc);
    const LaneMask active = w.stack().activeMask();

    LaneMask exec = active;
    if (inst.guard >= 0) {
        LaneMask pm = w.regs().predMask(inst.guard, active);
        exec = inst.guardNegate ? (active & ~pm) : pm;
    }

    if (tracer_.enabled()) {
        const std::int32_t wid = static_cast<std::int32_t>(w.id());
        tracer_.emit(now, id_, wid, trace::EventKind::Fetch, pc);
        tracer_.emit(now, id_, wid, trace::EventKind::Issue, pc,
                     static_cast<std::uint64_t>(inst.op) |
                         (static_cast<std::uint64_t>(popcount(exec)) << 8));
    }

    // --- accounting ----------------------------------------------------
    KernelStats &st = stats_;
    ++st.warpInstructions;
    ++issuedInstructions_;
    unsigned lanes = popcount(active);
    st.threadInstructions += lanes;
    st.activeLaneSum += lanes;
    const bool sync_pc =
        (launch_.pcFlags[pc] & LaunchState::kPcSyncRegion) != 0;
    if (sync_pc)
        st.syncThreadInstructions += lanes;

    ++st.energy.warpInstructions;
    st.energy.laneAluOps += popcount(exec);
    unsigned reg_srcs = 0;
    for (const Operand &s : inst.src)
        reg_srcs += s.isReg() ? 1 : 0;
    st.energy.rfReadLanes += reg_srcs * lanes;
    if (inst.dst.valid())
        st.energy.rfWriteLanes += lanes;

    // --- BOWS / CAWA state transitions at issue ---------------------------
    backoff_.onIssue(w, now);
    CawaState &cawa = w.cawa();
    ++cawa.issued;
    if (cawa.estRemaining > 0)
        cawa.estRemaining -= 1.0;
    w.setLastIssueCycle(now);

    bool sib_executed = false;

    // --- execute -----------------------------------------------------------
    switch (inst.op) {
      case Opcode::Bra: {
        const LaneMask taken = exec;
        const bool backward = inst.target <= pc;
        if (backward && taken != 0) {
            // The warp will re-run the loop body: grow CAWA's remaining-
            // work estimate (this is the spin-prioritization pathology).
            cawa.estRemaining += static_cast<double>(pc - inst.target + 1);
            if (ddos_->onBackwardBranch(w.id(), pc, now)) {
                // Label the newly confirmed SIB against the kernel's
                // ground-truth annotations for the detection stream, and
                // cross-attribute the confirmation to the sync address
                // whose failed CAS provoked the spin.
                const bool truth =
                    (launch_.pcFlags[pc] & LaunchState::kPcSpinBranch) != 0;
                tracer_.emit(now, id_, static_cast<std::int32_t>(w.id()),
                             truth ? trace::EventKind::DetectTrue
                                   : trace::EventKind::DetectFalse,
                             pc);
                launch_.sync.onSibConfirm(launch_.warpKey(w), now);
            }
        }
        if (backward && taken != 0 && isSib(pc)) {
            sib_executed = true;
            ++st.sibInstructions;
            // The profiler charges the back-off entry to the sync
            // address whose failed CAS provoked the spin.
            if (backoff_.onSpinBranch(w, now))
                launch_.sync.onBackoffEnter(launch_.warpKey(w), now);
        }
        w.stack().branch(inst, taken);
        break;
      }
      case Opcode::Exit:
        w.stack().exitLanes(exec);
        break;
      case Opcode::Bar: {
        w.stack().advance();
        Cta &cta = ctas_.at(w.id() / warpsPerCta_);
        w.setAtBarrier(true);
        ++cta.arrivedAtBarrier;
        tracer_.emit(now, id_, static_cast<std::int32_t>(w.id()),
                     trace::EventKind::BarrierEnter, pc);
        checkBarrier(cta);
        break;
      }
      case Opcode::Nop:
      case Opcode::Membar:
        // Fences are a timing no-op here: functional memory updates are
        // already globally visible at issue (documented approximation).
        w.stack().advance();
        break;
      default:
        execute(w, inst, active, exec, sync_pc, now);
        w.stack().advance();
        break;
    }

    backoff_.onInstruction(sib_executed);

    if (w.done())
        onWarpFinished(w);
}

void
SmCore::onWarpFinished(Warp &w)
{
    ddos_->resetWarp(w.id());
    for (auto &sched : schedulers_)
        sched->notifyFinished(&w);
    resident_.erase(std::remove(resident_.begin(), resident_.end(), &w),
                    resident_.end());
    const unsigned unit_id =
        w.id() % static_cast<unsigned>(schedulers_.size());
    auto &unit = unitResident_[unit_id];
    unit.erase(std::remove(unit.begin(), unit.end(), &w), unit.end());
    rebuildUnitMask(unit_id);  // positions shifted by the erase
    Cta &cta = ctas_.at(w.id() / warpsPerCta_);
    if (cta.liveWarps == 0)
        panic("warp finished in an already-empty CTA");
    --cta.liveWarps;
    if (cta.liveWarps == 0)
        ++drainedCtas_;  // retirement scan now has a candidate
    checkBarrier(cta);
}

void
SmCore::rebuildUnitMask(unsigned u)
{
    std::uint64_t issuable = 0;
    std::uint64_t backed_off = 0;
    const auto &unit = unitResident_[u];
    for (std::size_t k = 0; k < unit.size(); ++k) {
        const Warp &w = *unit[k];
        unitPosOf_[w.id()] = static_cast<std::uint32_t>(k);
        const std::uint64_t bit = std::uint64_t{1} << k;
        if (!w.atBarrier())
            issuable |= bit;
        if (w.bows().backedOff)
            backed_off |= bit;
    }
    unitIssuable_[u] = issuable;
    unitBackedOff_[u] = backed_off;
}

void
SmCore::refreshWarpMask(const Warp &w)
{
    const unsigned u =
        w.id() % static_cast<unsigned>(schedulers_.size());
    const std::uint64_t bit = std::uint64_t{1} << unitPosOf_[w.id()];
    if (w.atBarrier())
        unitIssuable_[u] &= ~bit;
    else
        unitIssuable_[u] |= bit;
    if (w.bows().backedOff)
        unitBackedOff_[u] |= bit;
    else
        unitBackedOff_[u] &= ~bit;
}

bool
SmCore::cycle(Cycle now)
{
    now_ = now;
    tryLaunchCtas();

    // 1. Memory and ALU writebacks due this cycle.
    const bool tracing = tracer_.enabled();
    memCompletions_.clear();
    ldst_.cycle(now, memCompletions_);
    for (const MemCompletion &c : memCompletions_) {
        if (c.inst->dst.valid()) {
            c.warp->scoreboard().release(*c.inst);
            if (tracing) {
                tracer_.emit(now, id_,
                             static_cast<std::int32_t>(c.warp->id()),
                             trace::EventKind::Writeback,
                             static_cast<std::uint64_t>(c.inst - code_));
            }
        }
    }
    if (wbPending_ != 0) {
        std::vector<WbEvent> &due = wbRing_[now % kWbRingSize];
        if (!due.empty()) {
            for (const WbEvent &ev : due) {
                ev.warp->scoreboard().release(*ev.inst);
                if (tracing) {
                    tracer_.emit(now, id_,
                                 static_cast<std::int32_t>(ev.warp->id()),
                                 trace::EventKind::Writeback,
                                 static_cast<std::uint64_t>(ev.inst -
                                                            code_));
                }
            }
            wbPending_ -= due.size();
            due.clear();
        }
    }

    // 2. The BOWS adaptive window. (Pending delays are absolute
    //    deadlines on this path, so there are no counters to tick.)
    backoff_.tickWindow(now);
    stats_.delayLimitCycleSum += backoff_.delayLimit();
    ++stats_.smCycles;

    // 3. Issue: one instruction per scheduler unit per cycle (Fig. 8
    //    arbitration: base-policy order over non-backed-off warps, then
    //    the backed-off queue in FIFO order).
    const unsigned units = static_cast<unsigned>(schedulers_.size());
    const bool deprio = backoff_.deprioritizes();
    bool issued_any = false;
    for (unsigned u = 0; u < units; ++u) {
        if (unitResident_[u].empty())
            continue;
        Scheduler &sched = *schedulers_[u];
        Warp *winner =
            sched.pick(unitResident_[u],
                       UnitMask{unitIssuable_[u], unitBackedOff_[u]}, now,
                       deprio, *this);
        if (winner) {
            issue(*winner, now);
            if (stallAccounting_)
                ++stats_.unitIssues[id_ * schedulers_.size() + u];
            // A finished winner left the vectors (masks rebuilt); a
            // live one may have entered a barrier or changed back-off
            // state during execution.
            if (!winner->done())
                refreshWarpMask(*winner);
            sched.notifyIssued(winner, now);
            issued_any = true;
        }
    }

    // 4. Per-cycle warp accounting (CAWA stalls, Fig. 11 occupancy).
    //    The occupancy sums are running counters, so only CAWA — the one
    //    consumer of per-warp active/stall cycles — needs the warp loop.
    KernelStats &st = stats_;
    if (cawaAccounting_) {
        for (Warp *w : resident_) {
            ++w->cawa().activeCycles;
            if (w->lastIssueCycle() != now)
                ++w->cawa().stallCycles;
        }
    }
    if (stallAccounting_)
        recordStallCycle(now);
    st.residentWarpCycles += resident_.size();
    st.backedOffWarpCycles += backoff_.backedOffCount();
    if (spinAccounting_)
        st.spinningWarpCycles += spinningWarpCount();

    retireFinishedCtas();
    return issued_any;
}

Cycle
SmCore::nextWorkCycle(Cycle now) const
{
    // A free CTA slot with grid work left dispatches next cycle (a
    // retirement at the end of cycle(now) may have just opened one).
    if (launch_.nextCta < ctaEnd_ && validCtas_ < maxResidentCtas_)
        return now + 1;
    Cycle horizon = kNeverCycle;
    if (wbPending_ != 0) {
        // The ring covers at most kWbRingSize-1 cycles ahead and the
        // bucket for `now` was drained this cycle, so the first
        // non-empty bucket is the earliest pending writeback.
        for (unsigned k = 1; k < kWbRingSize; ++k) {
            if (!wbRing_[(now + k) % kWbRingSize].empty()) {
                horizon = now + k;
                break;
            }
        }
    }
    horizon = std::min(horizon, ldst_.nextEventCycle(now));
    if (backoff_.enabled()) {
        // Only unexpired deadlines create future work; a backed-off
        // warp whose delay already expired is blocked by something
        // else (or it would have issued this cycle).
        for (const Warp *w : resident_) {
            const BowsState &b = w->bows();
            if (b.backedOff && b.delayUntil > now)
                horizon = std::min(horizon, b.delayUntil);
        }
    }
    return horizon;
}

void
SmCore::fastForward(Cycle from, Cycle to)
{
    // No unit issued at `from - 1` and nothing can issue before
    // nextWorkCycle() > to, so per-warp eligibility — and with it each
    // warp's stall classification — is frozen across the gap; every
    // per-cycle accounting step collapses to one multiplication. The
    // adaptive-window replay is the exception: the delay limit can
    // change at mid-gap boundaries, which fastForwardWindows()
    // integrates exactly.
    now_ = to;
    const std::uint64_t delta = to - from + 1;
    KernelStats &st = stats_;
    st.delayLimitCycleSum += backoff_.fastForwardWindows(from, to);
    st.smCycles += delta;
    if (cawaAccounting_) {
        for (Warp *w : resident_) {
            w->cawa().activeCycles += delta;
            w->cawa().stallCycles += delta;  // nobody issued in the gap
        }
    }
    if (stallAccounting_)
        recordStallGap(delta);
    st.residentWarpCycles += delta * resident_.size();
    st.backedOffWarpCycles +=
        delta * static_cast<std::uint64_t>(backoff_.backedOffCount());
    // Exact under fast-forward: DDOS spin state only changes at issue
    // time, and nothing issues inside an idle gap.
    if (spinAccounting_)
        st.spinningWarpCycles +=
            delta * static_cast<std::uint64_t>(spinningWarpCount());
}

void
SmCore::recordStallGap(std::uint64_t delta)
{
    // recordStallCycle() over unitResident_ visits exactly the resident
    // warps; with no issues and frozen gates each warp keeps one cause
    // for the whole gap, so the per-cycle increment becomes += delta
    // and the grand total still advances by resident_.size() per cycle.
    KernelStats &st = stats_;
    const std::size_t sm_base =
        static_cast<std::size_t>(id_) * st.stallWarpsPerSm;
    for (Warp *w : resident_) {
        const trace::StallCause cause = classifyStall(*w);
        const std::size_t idx =
            (sm_base + w->id()) * trace::kNumStallCauses +
            static_cast<std::size_t>(cause);
        if (idx < st.stallCounts.size())
            st.stallCounts[idx] += delta;
    }
}

void
SmCore::recordStallCycle(Cycle now)
{
    // Every warp still resident after this cycle's issue gets exactly one
    // count (Issued or its first blocking cause), so the table's grand
    // total matches residentWarpCycles. Classification happens after all
    // units issued; issuing only consumes resources, so a warp that looks
    // eligible here genuinely lost arbitration.
    const bool tracing = tracer_.enabled();
    KernelStats &st = stats_;
    const std::size_t sm_base =
        static_cast<std::size_t>(id_) * st.stallWarpsPerSm;
    const unsigned units = static_cast<unsigned>(schedulers_.size());
    for (unsigned u = 0; u < units; ++u) {
        if (unitResident_[u].empty()) {
            if (tracing && validCtas_ != 0) {
                tracer_.emit(now, id_, -1, trace::EventKind::IssueStall,
                             static_cast<std::uint64_t>(
                                 trace::StallCause::IbufferEmpty));
            }
            continue;
        }
        bool unit_issued = false;
        bool have_cause = false;
        trace::StallCause unit_cause = trace::StallCause::Arbitration;
        for (Warp *w : unitResident_[u]) {
            trace::StallCause cause;
            if (w->lastIssueCycle() == now) {
                cause = trace::StallCause::Issued;
                unit_issued = true;
            } else {
                cause = classifyStall(*w);
                if (!have_cause) {
                    unit_cause = cause;
                    have_cause = true;
                }
            }
            std::size_t idx = (sm_base + w->id()) * trace::kNumStallCauses +
                              static_cast<std::size_t>(cause);
            if (idx < st.stallCounts.size())
                ++st.stallCounts[idx];
        }
        if (tracing && !unit_issued) {
            tracer_.emit(now, id_, -1, trace::EventKind::IssueStall,
                         static_cast<std::uint64_t>(unit_cause));
        }
    }
}

}  // namespace bowsim
