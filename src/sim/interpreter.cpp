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

}  // namespace

Word
readOperand(const LaunchState &launch, unsigned sm_id, const Warp &w,
            const Operand &op, unsigned lane)
{
    switch (op.kind) {
      case Operand::Kind::Reg:
        return w.regs().read(lane, op.index);
      case Operand::Kind::Imm:
        return op.imm;
      case Operand::Kind::Pred:
        return w.regs().readPred(lane, op.index) ? 1 : 0;
      case Operand::Kind::Special:
        return exec::readSpecial(
            static_cast<SpecialReg>(op.index),
            exec::ThreadCtx{w.warpInCta(), w.cta(), launch.block.count(),
                            launch.grid.count(), sm_id},
            lane);
      case Operand::Kind::None:
        panic("readOperand on a missing operand");
    }
    return 0;
}

void
executeLanes(LaunchState &launch, unsigned sm_id,
             std::vector<std::uint8_t> &shared, Warp &w,
             const Instruction &inst, LaneMask exec, Cycle clock,
             LaneAddrs &addrs)
{
    if (exec == 0)
        return;  // fully predicated off: no lane has a value effect

    // Operand access is resolved once per instruction instead of once
    // per lane: register sources become contiguous row pointers and
    // immediates become constants; only predicate/special sources keep
    // the generic readOperand path. A missing operand reads as 0.
    struct SrcRef {
        const Word *row = nullptr;
        const Operand *op = nullptr;
        Word imm = 0;
    };
    auto resolve = [&](const Operand &o) {
        SrcRef s;
        switch (o.kind) {
          case Operand::Kind::Reg:
            s.row = w.regs().row(o.index);
            break;
          case Operand::Kind::Imm:
            s.imm = o.imm;
            break;
          case Operand::Kind::None:
            break;
          default:
            s.op = &o;
            break;
        }
        return s;
    };
    auto get = [&](const SrcRef &s, unsigned lane) -> Word {
        if (s.row)
            return s.row[lane];
        if (s.op)
            return readOperand(launch, sm_id, w, *s.op, lane);
        return s.imm;
    };

    KernelStats &st = launch.stats;
    switch (inst.op) {
      case Opcode::Setp: {
        const bool is_wait_check = (launch.pcFlags[w.stack().pc()] &
                                    LaunchState::kPcWaitCheck) != 0;
        const SrcRef a = resolve(inst.src[0]);
        const SrcRef b = resolve(inst.src[1]);
        LaneMask &pred = w.regs().predRow(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            const bool r =
                exec::compare(inst.cmp, get(a, lane), get(b, lane));
            const LaneMask bit = LaneMask{1} << lane;
            pred = r ? (pred | bit) : (pred & ~bit);
            if (is_wait_check) {
                if (r)
                    ++st.outcomes.waitExitSuccess;
                else
                    ++st.outcomes.waitExitFail;
            }
        }
        return;
      }
      case Opcode::Selp: {
        const SrcRef a = resolve(inst.src[0]);
        const SrcRef b = resolve(inst.src[1]);
        const LaneMask pbits = w.regs().predBits(inst.src[2].index);
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            dst[lane] = ((pbits >> lane) & 1) ? get(a, lane) : get(b, lane);
        }
        return;
      }
      case Opcode::Clock: {
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1)
            dst[firstLane(rest)] = static_cast<Word>(clock);
        return;
      }
      case Opcode::Ld:
        if (inst.space == MemSpace::Param) {
            // ld.param: a constant access, no lane address.
            const SrcRef base = resolve(inst.src[0]);
            Word *dst = w.regs().row(inst.dst.index);
            for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
                const unsigned lane = firstLane(rest);
                Addr offset =
                    static_cast<Addr>(get(base, lane) + inst.memOffset);
                unsigned index = static_cast<unsigned>(offset / 8);
                if (index >= launch.params.size())
                    simFatal("ld.param index ", index, " out of range in '",
                             launch.prog->name, "'");
                dst[lane] = launch.params[index];
            }
            return;
        }
        break;
      case Opcode::St:
      case Opcode::Atom:
        break;
      default: {
        const SrcRef a = resolve(inst.src[0]);
        const SrcRef b = resolve(inst.src[1]);
        const SrcRef c = resolve(inst.src[2]);
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            dst[lane] = exec::aluCompute(inst, get(a, lane), get(b, lane),
                                         get(c, lane));
        }
        return;
      }
    }

    // Shared and global ld/st/atom: every lane's address first, then the
    // accesses in lane order.
    const SrcRef base = resolve(inst.src[0]);
    for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
        const unsigned lane = firstLane(rest);
        addrs[lane] = static_cast<Addr>(get(base, lane) + inst.memOffset);
    }
    const SrcRef value = resolve(inst.src[1]);

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
                w.regs().write(lane, inst.dst.index, v);
            } else {
                const Word v = get(value, lane);
                std::memcpy(shared.data() + a, &v, inst.size);
            }
        }
        return;
    }

    // Global memory: values are globally visible at execution; cycle
    // mode's LD/ST unit models only the timing and traffic.
    MemorySpace &mem = *launch.mem;
    LockTracker &locks = *launch.tracker;
    if (inst.op == Opcode::Ld) {
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            dst[lane] = mem.read(addrs[lane], inst.size);
        }
        return;
    }
    if (inst.op == Opcode::St) {
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            mem.write(addrs[lane], get(value, lane), inst.size);
            const LockTransition t = locks.onWrite(addrs[lane]);
            if (t.kind == LockTransition::Kind::Release)
                launch.sync.onRelease(addrs[lane], t.holder, clock);
        }
        return;
    }

    const bool acquire = (launch.pcFlags[w.stack().pc()] &
                          LaunchState::kPcLockAcquire) != 0;
    const bool is_cas = inst.atom == AtomOp::Cas;
    const std::uint64_t warp_key = launch.warpKey(w);
    const SrcRef swap = resolve(inst.src[2]);
    for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
        const unsigned lane = firstLane(rest);
        const Addr a = addrs[lane];
        const Word operand = get(value, lane);
        const Word old = mem.read(a, inst.size);
        Word next = old;
        LockTransition t;
        switch (inst.atom) {
          case AtomOp::Cas: {
            const Word desired = get(swap, lane);
            next = old == operand ? desired : old;
            t = locks.onCas(a, warp_key, old, operand, desired);
            break;
          }
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
        if (inst.dst.valid())
            w.regs().write(lane, inst.dst.index, old);
    }
}

}  // namespace bowsim
