#include "src/sim/ldst_unit.hpp"

#include <algorithm>

#include "src/common/log.hpp"
#include "src/mem/coalescer.hpp"

namespace bowsim {

LdstUnit::LdstUnit(const GpuConfig &cfg, unsigned sm_id,
                   MemorySystem &memsys, KernelStats &stats)
    : cfg_(cfg), smId_(sm_id), memsys_(memsys), stats_(stats),
      l1_(cfg.l1d)
{
}

std::uint32_t
LdstUnit::allocOp(Warp *warp, const Instruction &inst, unsigned pending)
{
    std::uint32_t id;
    if (!freeOps_.empty()) {
        id = freeOps_.back();
        freeOps_.pop_back();
    } else {
        id = static_cast<std::uint32_t>(ops_.size());
        ops_.emplace_back();
    }
    ops_[id] = Op{warp, &inst, pending, true};
    ++inflightOps_;
    warp->addLdstOutstanding(1);
    return id;
}

void
LdstUnit::pushEvent(Cycle when, Event::Kind kind, std::uint32_t op,
                    Addr line)
{
    events_.push(Event{when, ++eventSeq_, kind, op, line});
}

void
LdstUnit::submit(Warp *warp, const Instruction &inst,
                 const std::array<Addr, kWarpSize> &addrs, LaneMask mask,
                 bool sync, Cycle now)
{
    if (!canAccept())
        panic("LdstUnit::submit past capacity");
    if (mask == 0)
        panic("LdstUnit::submit with empty mask");

    if (inst.space == MemSpace::Shared) {
        // Shared memory: fixed latency, no L1/NoC traffic. Bank conflicts
        // are not modeled (none of the paper's kernels stress them).
        std::uint32_t op = allocOp(warp, inst, 1);
        ++stats_.sharedAccesses;
        ++stats_.energy.sharedAccesses;
        pushEvent(now + kSharedMemLatency, Event::Kind::OpPartDone, op, 0);
        return;
    }

    std::vector<Addr> targets;
    if (inst.isAtomic()) {
        // Atomics serialize per distinct address at the L2 banks.
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (!((mask >> lane) & 1))
                continue;
            if (std::find(targets.begin(), targets.end(), addrs[lane]) ==
                targets.end()) {
                targets.push_back(addrs[lane]);
            }
        }
    } else {
        targets = coalesce(addrs, mask);
    }

    MemPacket::Type type = inst.isAtomic() ? MemPacket::Type::Atomic
                           : inst.op == Opcode::St ? MemPacket::Type::Write
                                                   : MemPacket::Type::Read;
    std::uint32_t op =
        allocOp(warp, inst, static_cast<unsigned>(targets.size()));
    for (Addr a : targets)
        l1Queue_.push_back(
            Txn{a, op, type, inst.scope, sync, inst.isVolatile});
}

void
LdstUnit::completePart(std::uint32_t op_id, Cycle now,
                       std::vector<MemCompletion> &completed)
{
    (void)now;
    Op &op = ops_[op_id];
    if (!op.live || op.pending == 0)
        panic("LdstUnit: completion on dead op");
    if (--op.pending == 0) {
        completed.push_back(MemCompletion{op.warp, op.inst});
        op.warp->addLdstOutstanding(-1);
        op.live = false;
        freeOps_.push_back(op_id);
        --inflightOps_;
    }
}

void
LdstUnit::cycle(Cycle now, std::vector<MemCompletion> &completed)
{
    // 1. Drain due events.
    while (!events_.empty() && events_.top().when <= now) {
        Event ev = events_.top();
        events_.pop();
        if (ev.kind == Event::Kind::OpPartDone) {
            completePart(ev.op, now, completed);
        } else {
            // Fill: install the line and wake every waiting load.
            bool dirty = false;
            l1_.fill(ev.line, false, &dirty);
            auto it = mshr_.find(ev.line);
            if (it == mshr_.end())
                panic("LdstUnit: fill without MSHR entry");
            for (std::uint32_t waiting : it->second)
                completePart(waiting, now, completed);
            mshr_.erase(it);
        }
    }

    // 2. One transaction per cycle through the L1 port.
    if (l1Queue_.empty())
        return;
    Txn txn = l1Queue_.front();

    ++stats_.l1Accesses;
    ++stats_.energy.l1Accesses;
    if (txn.sync)
        ++stats_.syncMemTransactions;

    switch (txn.type) {
      case MemPacket::Type::Read: {
        Addr line = lineBase(txn.addr);
        if (txn.vol) {
            // Volatile polling loads read through to the L2 every time.
            const MemPacket pkt{line, MemPacket::Type::Read, smId_};
            pushEvent(memsys_.request(pkt, now), Event::Kind::OpPartDone,
                      txn.op, 0);
            l1Queue_.pop_front();
            break;
        }
        if (l1_.access(line, false)) {
            ++stats_.l1Hits;
            pushEvent(now + kL1HitLatency, Event::Kind::OpPartDone, txn.op, 0);
            l1Queue_.pop_front();
            break;
        }
        ++stats_.l1Misses;
        auto it = mshr_.find(line);
        if (it != mshr_.end()) {
            // Merge into the outstanding fill.
            it->second.push_back(txn.op);
            if (tracer_.enabled()) {
                tracer_.emit(now, smId_,
                             static_cast<std::int32_t>(
                                 ops_[txn.op].warp->id()),
                             trace::EventKind::MshrMerge, line);
            }
            l1Queue_.pop_front();
            break;
        }
        if (mshr_.size() >= cfg_.l1Mshrs) {
            // Structural stall: retry next cycle (the access above still
            // consumed the port, as on hardware replays).
            --stats_.l1Accesses;
            --stats_.energy.l1Accesses;
            if (txn.sync)
                --stats_.syncMemTransactions;
            break;
        }
        if (tracer_.enabled()) {
            tracer_.emit(now, smId_,
                         static_cast<std::int32_t>(ops_[txn.op].warp->id()),
                         trace::EventKind::L1Miss, line);
        }
        const MemPacket pkt{line, MemPacket::Type::Read, smId_};
        mshr_.emplace(line, std::vector<std::uint32_t>{txn.op});
        pushEvent(memsys_.request(pkt, now), Event::Kind::Fill, 0, line);
        l1Queue_.pop_front();
        break;
      }
      case MemPacket::Type::Write: {
        Addr line = lineBase(txn.addr);
        // Write-through, no-allocate: update the line if present.
        (void)l1_.access(line, true);
        memsys_.request(MemPacket{line, MemPacket::Type::Write, smId_}, now);
        // Writes get no reply; the op completes next cycle.
        pushEvent(now + 1, Event::Kind::OpPartDone, txn.op, 0);
        l1Queue_.pop_front();
        break;
      }
      case MemPacket::Type::Atomic: {
        const MemPacket pkt{txn.addr, MemPacket::Type::Atomic, smId_,
                            txn.scope};
        pushEvent(memsys_.request(pkt, now), Event::Kind::OpPartDone,
                  txn.op, 0);
        l1Queue_.pop_front();
        break;
      }
    }
}

}  // namespace bowsim
