#include "src/sim/interpreter.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/log.hpp"
#include "src/isa/exec.hpp"
#include "src/sim/sm_core.hpp"

namespace bowsim {

namespace {

unsigned
firstLane(LaneMask m)
{
    return static_cast<unsigned>(std::countr_zero(m));
}

/** What a missing operand reads in every lane. */
constexpr Word kZeroRow[kWarpSize] = {};

/**
 * Source operand @p op of @p w as a lane row over [lo, hi): the
 * register's own row, or @p buf filled once over the span for an
 * immediate, a predicate or a special register. Lanes of @p buf outside
 * the span are left unwritten.
 */
const Word *
sourceRow(const LaunchState &launch, unsigned sm_id, const Warp &w,
          const Operand &op, unsigned lo, unsigned hi, Word *buf)
{
    switch (op.kind) {
      case Operand::Kind::Reg:
        return w.regs().row(op.index);
      case Operand::Kind::Imm:
        std::fill(buf + lo, buf + hi, op.imm);
        return buf;
      case Operand::Kind::Pred: {
        const LaneMask bits = w.regs().predBits(op.index);
        for (unsigned l = lo; l < hi; ++l)
            buf[l] = (bits >> l) & 1;
        return buf;
      }
      case Operand::Kind::Special:
        exec::specialRow(
            static_cast<SpecialReg>(op.index),
            exec::ThreadCtx{w.warpInCta(), w.cta(), launch.block.count(),
                            launch.grid.count(), sm_id},
            lo, hi, buf);
        return buf;
      case Operand::Kind::None:
        break;
    }
    return kZeroRow;
}

/**
 * Shared and global ld/st/atom over the rows @p base, @p value and
 * @p swap (src[0..2]): every exec lane's address first, then the
 * accesses one lane at a time in lane order, since each one can see the
 * lanes before it.
 */
void
executeMemory(LaunchState &launch, std::vector<std::uint8_t> &shared,
              Warp &w, const Instruction &inst, LaneMask exec, Cycle clock,
              const Word *base, const Word *value, const Word *swap,
              LaneAddrs &addrs)
{
    for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
        const unsigned lane = firstLane(rest);
        addrs[lane] =
            static_cast<Addr>(exec::wrapAdd(base[lane], inst.memOffset));
    }
    Word *dst = inst.dst.valid() ? w.regs().row(inst.dst.index) : nullptr;

    if (inst.space == MemSpace::Shared) {
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            const Addr a = addrs[lane];
            if (a + inst.size > shared.size())
                simFatal("shared-memory access out of bounds in '",
                         launch.prog->name, "' (addr ", a, ")");
            if (inst.op == Opcode::Ld) {
                Word v = 0;
                std::memcpy(&v, shared.data() + a, inst.size);
                if (inst.size == 4)
                    v = static_cast<Word>(static_cast<std::int32_t>(v));
                dst[lane] = v;
            } else {
                std::memcpy(shared.data() + a, &value[lane], inst.size);
            }
        }
        return;
    }

    // Global memory: values are globally visible at execution; cycle
    // mode's LD/ST unit models only the timing and traffic.
    MemorySpace &mem = *launch.mem;
    LockTracker &locks = *launch.tracker;
    if (inst.op == Opcode::Ld) {
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            dst[lane] = mem.read(addrs[lane], inst.size);
        }
        return;
    }
    if (inst.op == Opcode::St) {
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            mem.write(addrs[lane], value[lane], inst.size);
            const LockTransition t = locks.onWrite(addrs[lane]);
            if (t.kind == LockTransition::Kind::Release)
                launch.sync.onRelease(addrs[lane], t.holder, clock);
        }
        return;
    }

    KernelStats &st = launch.stats;
    const bool acquire = (launch.pcFlags[w.stack().pc()] &
                          LaunchState::kPcLockAcquire) != 0;
    const bool is_cas = inst.atom == AtomOp::Cas;
    const std::uint64_t warp_key = launch.warpKey(w);
    for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
        const unsigned lane = firstLane(rest);
        const Addr a = addrs[lane];
        const Word operand = value[lane];
        const Word old = mem.read(a, inst.size);
        Word next = old;
        LockTransition t;
        switch (inst.atom) {
          case AtomOp::Cas:
            next = old == operand ? swap[lane] : old;
            t = locks.onCas(a, warp_key, old, operand, swap[lane]);
            break;
          case AtomOp::Exch:
            next = operand;
            t = locks.onWrite(a);
            break;
          case AtomOp::Add:
            next = exec::wrapAdd(old, operand);
            break;
          case AtomOp::Min:
            next = std::min(old, operand);
            break;
          case AtomOp::Max:
            next = std::max(old, operand);
            break;
        }
        mem.write(a, next, inst.size);
        // The tracker's one transition feeds both observers: the
        // profiler, and the Fig. 2 counters at acquire sites (only a CAS
        // acquires or fails).
        launch.sync.onAtomic(a, warp_key, clock, is_cas, acquire, t);
        if (acquire) {
            switch (t.kind) {
              case LockTransition::Kind::Acquire:
                ++st.outcomes.lockSuccess;
                break;
              case LockTransition::Kind::InterWarpFail:
                ++st.outcomes.interWarpFail;
                break;
              case LockTransition::Kind::IntraWarpFail:
                ++st.outcomes.intraWarpFail;
                break;
              case LockTransition::Kind::None:
              case LockTransition::Kind::Release:
                break;
            }
        }
        if (dst)
            dst[lane] = old;
    }
}

}  // namespace

Word
readOperand(const LaunchState &launch, unsigned sm_id, const Warp &w,
            const Operand &op, unsigned lane)
{
    Word buf[kWarpSize];
    return sourceRow(launch, sm_id, w, op, lane, lane + 1, buf)[lane];
}

void
executeLanes(LaunchState &launch, unsigned sm_id,
             std::vector<std::uint8_t> &shared, Warp &w,
             const Instruction &inst, LaneMask exec, Cycle clock,
             LaneAddrs &addrs)
{
    if (exec == 0)
        return;  // fully predicated off: no lane has a value effect

    // Row ops run over the exec mask's lane span [lo, hi): on the
    // one-lane instructions that dominate spin loops that is one lane,
    // on a full warp all 32. Lanes inside the span but outside exec are
    // computed on stale values and never written back.
    const unsigned lo = firstLane(exec);
    const unsigned hi =
        kWarpSize - static_cast<unsigned>(std::countl_zero(exec));
    // Only [lo, hi) of these rows is ever written or read; zeroing all
    // 32 lanes would cost as much as a one-lane instruction itself.
    Word bufs[3][kWarpSize];
    Word out[kWarpSize];
    auto src = [&](int i) {
        return sourceRow(launch, sm_id, w, inst.src[i], lo, hi, bufs[i]);
    };

    KernelStats &st = launch.stats;
    switch (inst.op) {
      case Opcode::Setp: {
        const LaneMask r =
            exec::compareRow(inst.cmp, src(0), src(1), lo, hi) & exec;
        LaneMask &pred = w.regs().predRow(inst.dst.index);
        pred = (pred & ~exec) | r;
        if (launch.pcFlags[w.stack().pc()] & LaunchState::kPcWaitCheck) {
            st.outcomes.waitExitSuccess += std::popcount(r);
            st.outcomes.waitExitFail += std::popcount(exec & ~r);
        }
        return;
      }
      case Opcode::Selp: {
        const Word *a = src(0);
        const Word *b = src(1);
        const LaneMask p = w.regs().predBits(inst.src[2].index);
        for (unsigned l = lo; l < hi; ++l)
            out[l] = ((p >> l) & 1) ? a[l] : b[l];
        break;
      }
      case Opcode::Clock:
        std::fill(out + lo, out + hi, static_cast<Word>(clock));
        break;
      case Opcode::Ld:
        if (inst.space == MemSpace::Param) {
            // ld.param: a constant access, no lane address. The index
            // check applies to exec lanes only, so it walks them.
            const Word *base = src(0);
            Word *dst = w.regs().row(inst.dst.index);
            for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
                const unsigned lane = firstLane(rest);
                const Addr offset = static_cast<Addr>(
                    exec::wrapAdd(base[lane], inst.memOffset));
                const unsigned index = static_cast<unsigned>(offset / 8);
                if (index >= launch.params.size())
                    simFatal("ld.param index ", index, " out of range in '",
                             launch.prog->name, "'");
                dst[lane] = launch.params[index];
            }
            return;
        }
        [[fallthrough]];
      case Opcode::St:
      case Opcode::Atom:
        return executeMemory(launch, shared, w, inst, exec, clock,
                             src(0), src(1), src(2), addrs);
      default:
        exec::aluRow(inst.op, src(0), src(1), src(2), lo, hi, out);
        break;
    }
    Word *dst = w.regs().row(inst.dst.index);
    for (unsigned l = lo; l < hi; ++l) {
        if ((exec >> l) & 1)
            dst[l] = out[l];
    }
}

}  // namespace bowsim
