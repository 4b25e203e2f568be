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

/** Sets or clears @p bit of @p mask. */
void
assign(std::uint64_t &mask, std::uint64_t bit, bool set)
{
    mask = set ? mask | bit : mask & ~bit;
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

void
Cta::dispatch(LaunchState &launch, unsigned slot, unsigned warps_per_cta)
{
    const Program &prog = *launch.prog;
    const unsigned threads = launch.block.count();
    id = launch.nextCta++;
    valid = true;
    shared.assign(prog.sharedBytes, 0);
    warps.clear();
    arrivedAtBarrier = 0;
    for (unsigned wi = 0; wi < warps_per_cta; ++wi) {
        const unsigned lanes = std::min(kWarpSize, threads - wi * kWarpSize);
        const LaneMask mask =
            lanes == kWarpSize ? kFullMask : ((LaneMask{1} << lanes) - 1);
        warps.push_back(std::make_unique<Warp>(
            slot * warps_per_cta + wi, id, wi, launch.warpAgeCounter++,
            prog.numRegs, prog.numPreds, mask));
    }
    liveWarps = warps_per_cta;
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
        schedulers_.push_back(makeScheduler(cfg, s));
    units_.resize(units);
    for (Unit &unit : units_)
        unit.warps.bySlot.assign((maxWarps_ + units - 1) / units, nullptr);
    ddos_ = std::make_unique<DdosUnit>(cfg.ddos, maxWarps_);

    wbRing_.resize(kWbRingSize);

    code_ = launch_.prog->code.data();
    if (launch_.pcFlags.size() != launch_.prog->code.size())
        launch_.buildPcFlags();  // idempotent; cores are built serially
    if (launch_.tracker == nullptr)
        panic("launch without a lock tracker");

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

    const unsigned threads_per_cta = launch_.block.count();
    warpsPerCta_ = (threads_per_cta + kWarpSize - 1) / kWarpSize;
    maxResidentCtas_ =
        maxResidentCtasFor(cfg, *launch_.prog, threads_per_cta);
    ctas_.resize(maxResidentCtas_);
    for (unsigned slot = 0; slot < maxResidentCtas_ * warpsPerCta_; ++slot)
        placeOf_.push_back(
            SlotPlace{slot % units, slot / units, slot / warpsPerCta_});
}

void
SmCore::tryLaunchCtas()
{
    if (launch_.nextCta >= launch_.ctaEnd ||
        validCtas_ == maxResidentCtas_)
        return;
    for (unsigned s = 0; s < maxResidentCtas_; ++s) {
        Cta &slot = ctas_[s];
        if (slot.valid)
            continue;
        if (launch_.nextCta >= launch_.ctaEnd)
            return;
        slot.dispatch(launch_, s, warpsPerCta_);
        ++validCtas_;
        for (const auto &warp : slot.warps) {
            const unsigned warp_slot = warp->id();
            ddos_->resetWarp(warp_slot);
            warp->cawa().dispatchCycle = now_;
            resident_.push_back(warp.get());
            const SlotPlace &p = placeOf_[warp_slot];
            UnitWarps &unit = units_[p.unit].warps;
            unit.bySlot[p.bit] = warp.get();
            unit.byAge.push_back(static_cast<std::uint8_t>(p.bit));
            unit.resident |= std::uint64_t{1} << p.bit;
            refreshWarpMask(*warp);
        }
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
    if (!cta.releaseBarrier())
        return;
    for (auto &w : cta.warps) {
        if (!w->done()) {
            refreshWarpMask(*w);
            tracer_.emit(now_, id_, static_cast<std::int32_t>(w->id()),
                         trace::EventKind::BarrierExit);
        }
    }
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
SmCore::classifyStall(const Warp &w) const
{
    if (w.atBarrier())
        return trace::StallCause::Barrier;
    if (!backoff_.mayIssue(w, now_))
        return trace::StallCause::Backoff;
    const Pc pc = w.stack().pc();
    if (!w.scoreboard().canIssue(launch_.pcHazards[pc]))
        return trace::StallCause::Scoreboard;
    if ((launch_.pcFlags[pc] & LaunchState::kPcLdst) != 0 &&
        !ldst_.canAccept())
        return trace::StallCause::PipelineBusy;
    return trace::StallCause::Arbitration;
}

bool
SmCore::eligible(const Warp &w) const
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
                LaneMask exec, std::uint8_t pc_flags, Cycle now)
{
    // DDOS profiles the first active thread of the warp at every setp,
    // guard or no guard.
    if (inst.op == Opcode::Setp && active != 0) {
        const unsigned lane = firstLane(active);
        ddos_->onSetp(w.id(), w.stack().pc(),
                      readOperand(launch_, id_, w, inst.src[0], lane),
                      readOperand(launch_, id_, w, inst.src[1], lane), now);
    }
    const bool memory = (pc_flags & LaunchState::kPcLdst) != 0;
    if (memory && exec == 0)
        return;  // fully predicated off: no transaction, no hazard

    // Only exec lanes' addresses are written, and only they are read.
    LaneAddrs addrs;
    executeLanes(launch_, id_, ctas_[placeOf_[w.id()].cta].shared, w, inst,
                 exec, now, addrs);
    if (memory) {
        ldst_.submit(&w, inst, addrs, exec,
                     (pc_flags & LaunchState::kPcSyncRegion) != 0, now);
        if (inst.dst.valid())
            w.scoreboard().reserve(inst);
    } else if (inst.dst.valid()) {
        w.scoreboard().reserve(inst);
        const unsigned latency = (pc_flags & LaunchState::kPcLongLatency) != 0
                                     ? kMulDivLatency
                                     : kAluLatency;
        const unsigned b = (now + latency) % kWbRingSize;
        wbRing_[b].push_back(WbEvent{&w, &inst});
        wbBusy_ |= std::uint32_t{1} << b;
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

    // Without -mpopcnt std::popcount is a library call: count once.
    const unsigned lanes = popcount(active);
    const unsigned exec_lanes = exec == active ? lanes : popcount(exec);
    if (tracer_.enabled()) {
        const std::int32_t wid = static_cast<std::int32_t>(w.id());
        tracer_.emit(now, id_, wid, trace::EventKind::Fetch, pc);
        tracer_.emit(now, id_, wid, trace::EventKind::Issue, pc,
                     static_cast<std::uint64_t>(inst.op) |
                         (static_cast<std::uint64_t>(exec_lanes) << 8));
    }

    // --- accounting ----------------------------------------------------
    KernelStats &st = stats_;
    ++st.warpInstructions;
    ++issuedInstructions_;
    st.threadInstructions += lanes;
    st.activeLaneSum += lanes;
    const std::uint8_t pc_flags = launch_.pcFlags[pc];
    if ((pc_flags & LaunchState::kPcSyncRegion) != 0)
        st.syncThreadInstructions += lanes;

    ++st.energy.warpInstructions;
    st.energy.laneAluOps += exec_lanes;
    st.energy.rfReadLanes += (pc_flags >> LaunchState::kPcRegSrcShift) * lanes;
    if (inst.dst.valid())
        st.energy.rfWriteLanes += lanes;

    // --- BOWS / CAWA state transitions at issue ---------------------------
    // Leaving the backed-off state clears a mask bit and arms a delay.
    const bool was_backed_off = w.bows().backedOff;
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
        Cta &cta = ctas_[placeOf_[w.id()].cta];
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
        execute(w, inst, active, exec, pc_flags, now);
        w.stack().advance();
        break;
    }

    backoff_.onInstruction(sib_executed);

    // A finished warp leaves its unit. A live one moved its PC and may
    // have reserved its scoreboard; only a backed-off winner, Bra (a SIB
    // backs off) and Bar (the barrier flag) touch the other gates.
    if (w.done())
        onWarpFinished(w);
    else if (was_backed_off || inst.op == Opcode::Bra ||
             inst.op == Opcode::Bar)
        refreshWarpMask(w);
    else
        refreshPcBits(w);
}

void
SmCore::onWarpFinished(Warp &w)
{
    ddos_->resetWarp(w.id());
    for (auto &sched : schedulers_)
        sched->notifyFinished(&w);
    resident_.erase(std::remove(resident_.begin(), resident_.end(), &w),
                    resident_.end());
    // The slot's bit clears everywhere; no other warp's bit moves.
    const SlotPlace &p = placeOf_[w.id()];
    Unit &unit = units_[p.unit];
    const std::uint64_t keep = ~(std::uint64_t{1} << p.bit);
    unit.warps.bySlot[p.bit] = nullptr;
    unit.warps.resident &= keep;
    std::vector<std::uint8_t> &age = unit.warps.byAge;
    age.erase(std::find(age.begin(), age.end(), p.bit));
    unit.issuable &= keep;
    unit.backedOff &= keep;
    unit.delayed &= keep;
    unit.sbReady &= keep;
    unit.memNext &= keep;
    Cta &cta = ctas_[p.cta];
    if (cta.liveWarps == 0)
        panic("warp finished in an already-empty CTA");
    --cta.liveWarps;
    if (cta.liveWarps == 0)
        ++drainedCtas_;  // retirement scan now has a candidate
    checkBarrier(cta);
}

void
SmCore::refreshWarpMask(const Warp &w)
{
    // One bit per classifyStall() check, evaluated the same way; only
    // the LD/ST port stays live (Unit::ready()).
    refreshPcBits(w);
    const SlotPlace &p = placeOf_[w.id()];
    Unit &unit = units_[p.unit];
    const std::uint64_t bit = std::uint64_t{1} << p.bit;
    const bool delayed = !backoff_.mayIssue(w, now_);
    assign(unit.issuable, bit, !w.atBarrier());
    assign(unit.backedOff, bit, w.bows().backedOff);
    assign(unit.delayed, bit, delayed);
    if (delayed)
        delayHorizon_ = std::min(delayHorizon_, w.bows().delayUntil);
}

void
SmCore::refreshPcBits(const Warp &w)
{
    const SlotPlace &p = placeOf_[w.id()];
    Unit &unit = units_[p.unit];
    const std::uint64_t bit = std::uint64_t{1} << p.bit;
    const Pc pc = w.stack().pc();
    assign(unit.sbReady, bit, w.scoreboard().canIssue(launch_.pcHazards[pc]));
    assign(unit.memNext, bit,
           (launch_.pcFlags[pc] & LaunchState::kPcLdst) != 0);
}

void
SmCore::recheckScoreboard(const Warp &w)
{
    const SlotPlace &p = placeOf_[w.id()];
    Unit &unit = units_[p.unit];
    const std::uint64_t bit = std::uint64_t{1} << p.bit;
    if ((unit.sbReady & bit) == 0 &&
        w.scoreboard().canIssue(launch_.pcHazards[w.stack().pc()]))
        unit.sbReady |= bit;
}

void
SmCore::expireDelays(Cycle now)
{
    // A delayed warp cannot issue, so its bit clears only here: the
    // minimum over the survivors is the exact next expiry.
    Cycle next = kNeverCycle;
    for (Unit &unit : units_) {
        for (std::uint64_t d = unit.delayed; d != 0; d &= d - 1) {
            const unsigned k = static_cast<unsigned>(std::countr_zero(d));
            const Cycle until = unit.warps.bySlot[k]->bows().delayUntil;
            if (until <= now)
                unit.delayed &= ~(std::uint64_t{1} << k);
            else
                next = std::min(next, until);
        }
    }
    delayHorizon_ = next;
}

std::string
SmCore::readyMaskMismatch() const
{
    const bool ldst_free = ldst_.canAccept();
    const unsigned units = static_cast<unsigned>(units_.size());
    std::size_t listed = 0;
    for (unsigned u = 0; u < units; ++u) {
        const Unit &unit = units_[u];
        const UnitWarps &uw = unit.warps;
        const std::uint64_t bits = unit.issuable | unit.backedOff |
                                   unit.delayed | unit.sbReady |
                                   unit.memNext;
        if ((bits & ~uw.resident) != 0)
            return detail::format("SM ", id_, " unit ", u,
                                  ": a mask bit on a free slot");
        for (std::size_t k = 0; k < uw.bySlot.size(); ++k) {
            const bool occupied = uw.bySlot[k] != nullptr;
            if (occupied != (((uw.resident >> k) & 1) != 0) ||
                (occupied && uw.bySlot[k]->id() != k * units + u))
                return detail::format("SM ", id_, " unit ", u, " slot ", k,
                                      ": occupancy or warp id disagrees");
        }
        if (uw.byAge.size() !=
            static_cast<std::size_t>(std::popcount(uw.resident)))
            return detail::format("SM ", id_, " unit ", u,
                                  ": age list and resident mask differ");
        listed += uw.byAge.size();
        const std::uint64_t ready = unit.ready(ldst_free);
        const Warp *prev = nullptr;
        for (const std::uint8_t k : uw.byAge) {
            const Warp *w = uw.bySlot[k];
            if (w == nullptr || (prev != nullptr && w->age() <= prev->age()))
                return detail::format("SM ", id_, " unit ", u,
                                      ": age list out of order at slot ", k);
            prev = w;
            const bool bit = ((ready >> k) & 1) != 0;
            const bool boff = ((unit.backedOff >> k) & 1) != 0;
            if (bit != eligible(*w) || boff != w->bows().backedOff)
                return detail::format("SM ", id_, " warp ", w->id(),
                                      " at cycle ", now_, ": ready bit ",
                                      bit, ", eligible() ", eligible(*w),
                                      ", backed-off bit ", boff, ", state ",
                                      w->bows().backedOff);
        }
    }
    if (listed != resident_.size())
        return detail::format("SM ", id_, ": ", listed, " warps in units, ",
                              resident_.size(), " resident");
    Cycle scan = kNeverCycle;
    for (const Warp *w : resident_) {
        const BowsState &b = w->bows();
        if (b.backedOff && b.delayUntil > now_)
            scan = std::min(scan, b.delayUntil);
    }
    if (scan != delayHorizon_)
        return detail::format("SM ", id_, " at cycle ", now_,
                              ": earliest back-off deadline ", delayHorizon_,
                              ", scan ", scan);
    return {};
}

bool
SmCore::cycle(Cycle now)
{
    now_ = now;
    if (now >= delayHorizon_)
        expireDelays(now);
    tryLaunchCtas();

    // 1. Memory and ALU writebacks due this cycle. A release can clear
    //    the scoreboard for the warp's next instruction; a finished warp
    //    has already left its unit.
    const bool tracing = tracer_.enabled();
    memCompletions_.clear();
    ldst_.cycle(now, memCompletions_);
    for (const MemCompletion &c : memCompletions_) {
        if (c.inst->dst.valid()) {
            c.warp->scoreboard().release(*c.inst);
            if (!c.warp->done())
                recheckScoreboard(*c.warp);
            if (tracing) {
                tracer_.emit(now, id_,
                             static_cast<std::int32_t>(c.warp->id()),
                             trace::EventKind::Writeback,
                             static_cast<std::uint64_t>(c.inst - code_));
            }
        }
    }
    const unsigned bucket = now % kWbRingSize;
    if (((wbBusy_ >> bucket) & 1) != 0) {
        std::vector<WbEvent> &due = wbRing_[bucket];
        for (const WbEvent &ev : due) {
            ev.warp->scoreboard().release(*ev.inst);
            if (!ev.warp->done())
                recheckScoreboard(*ev.warp);
            if (tracing) {
                tracer_.emit(now, id_,
                             static_cast<std::int32_t>(ev.warp->id()),
                             trace::EventKind::Writeback,
                             static_cast<std::uint64_t>(ev.inst - code_));
            }
        }
        due.clear();
        wbBusy_ &= ~(std::uint32_t{1} << bucket);
    }

    // 2. The BOWS adaptive window. (Pending delays are absolute
    //    deadlines on this path, so there are no counters to tick.)
    backoff_.tickWindow(now);
    stats_.delayLimitCycleSum += backoff_.delayLimit();
    ++stats_.smCycles;

    // 3. Issue: one instruction per scheduler unit per cycle (Fig. 8
    //    arbitration: base-policy order over non-backed-off warps, then
    //    the backed-off queue in FIFO order). A unit with no ready warp
    //    skips arbitration. canAccept() is read per unit: an earlier
    //    unit's submit this cycle can fill the LD/ST window.
    const unsigned units = static_cast<unsigned>(units_.size());
    const bool deprio = backoff_.deprioritizes();
    bool issued_any = false;
    for (unsigned u = 0; u < units; ++u) {
        Unit &unit = units_[u];
        const std::uint64_t ready = unit.ready(ldst_.canAccept());
        if (ready == 0)
            continue;
        Scheduler &sched = *schedulers_[u];
        const unsigned slot = sched.pick(
            unit.warps, UnitMask{ready, unit.backedOff}, now, deprio);
        Warp *winner = unit.warps.bySlot[slot];
        issue(*winner, now);  // leaves the masks current
        if (stallAccounting_)
            ++stats_.unitIssues[id_ * units + u];
        sched.notifyIssued(winner, slot, now);
        issued_any = true;
    }

    // 4. Per-cycle accounting (Fig. 11 occupancy sums are running
    //    counters, so no warp loop runs unless stalls are attributed).
    KernelStats &st = stats_;
    if (stallAccounting_)
        recordStallCycle(now);
    st.residentWarpCycles += resident_.size();
    st.backedOffWarpCycles += backoff_.backedOffCount();

    retireFinishedCtas();
    return issued_any;
}

Cycle
SmCore::nextWorkCycle(Cycle now) const
{
    // A free CTA slot with grid work left dispatches next cycle (a
    // retirement at the end of cycle(now) may have just opened one).
    if (launch_.nextCta < launch_.ctaEnd && validCtas_ < maxResidentCtas_)
        return now + 1;
    // A ready warp issues next cycle. A clear bit becomes set only at
    // one of the events below or inside a cycle this SM runs (a barrier
    // release, a warp exit), and canAccept() changes only at a
    // completion (an LD/ST event) or an issue.
    const bool ldst_free = ldst_.canAccept();
    for (const Unit &unit : units_) {
        if (unit.ready(ldst_free) != 0)
            return now + 1;
    }
    Cycle horizon = kNeverCycle;
    if (wbBusy_ != 0) {
        // The ring covers at most kWbRingSize-1 cycles ahead and the
        // bucket for `now` was drained this cycle, so the occupancy word
        // rotated to start at now + 1 has the earliest pending writeback
        // at its lowest set bit.
        const unsigned from = (now + 1) % kWbRingSize;
        horizon = now + 1 +
                  static_cast<Cycle>(std::countr_zero(std::rotr(wbBusy_,
                                                          from)));
    }
    // Only unexpired deadlines create future work, and cycle(now)
    // cleared every expired delayed bit: delayHorizon_ is the earliest
    // deadline after now.
    return std::min({horizon, ldst_.nextEventCycle(now), delayHorizon_});
}

void
SmCore::fastForward(Cycle from, Cycle to)
{
    // No warp was ready after cycle `from - 1` and none can become
    // ready before nextWorkCycle() > to (L1-port steps change nothing
    // an issue decision reads), so per-warp eligibility — and with it
    // each warp's stall classification — is frozen across the gap; every
    // per-cycle accounting step collapses to one multiplication. The
    // adaptive-window replay is the exception: the delay limit can
    // change at mid-gap boundaries, which fastForwardWindows()
    // integrates exactly.
    now_ = to;
    const std::uint64_t delta = to - from + 1;
    KernelStats &st = stats_;
    st.delayLimitCycleSum += backoff_.fastForwardWindows(from, to);
    st.smCycles += delta;
    if (stallAccounting_)
        recordStallGap(delta);
    st.residentWarpCycles += delta * resident_.size();
    st.backedOffWarpCycles +=
        delta * static_cast<std::uint64_t>(backoff_.backedOffCount());
}

void
SmCore::recordStallGap(std::uint64_t delta)
{
    // recordStallCycle() over the units' warps visits exactly the resident
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
    for (const Unit &unit : units_) {
        if (unit.warps.byAge.empty()) {
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
        // Age order: the first blocked warp names the unit's stall.
        for (const std::uint8_t k : unit.warps.byAge) {
            const Warp *w = unit.warps.bySlot[k];
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
