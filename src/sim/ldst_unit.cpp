#include "src/sim/ldst_unit.hpp"

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
LdstUnit::allocOp(Warp *warp, const Instruction &inst, unsigned queued)
{
    std::uint32_t id;
    if (!freeOps_.empty()) {
        id = freeOps_.back();
        freeOps_.pop_back();
    } else {
        id = static_cast<std::uint32_t>(ops_.size());
        ops_.emplace_back();
    }
    ops_[id] = Op{warp, &inst, queued, 0, 0, 0, true};
    ++inflightOps_;
    warp->addLdstOutstanding(1);
    return id;
}

void
LdstUnit::keyReply(Op &op, Cycle when)
{
    // Every direct reply takes its sequence number, so the op's one
    // event carries the key its latest reply had as an event of its own.
    const std::uint64_t seq = ++eventSeq_;
    if (when >= op.lastWhen) {
        op.lastWhen = when;
        op.lastSeq = seq;
    }
}

void
LdstUnit::passPort(std::uint32_t op_id, Cycle now)
{
    Op &op = ops_[op_id];
    if (--op.queued != 0)
        return;
    // The last transaction is through: one event at the latest direct
    // reply. A key at or before now has landed already (its per-
    // transaction event would have drained by this port step), and then
    // the op waits on a fill that lands later.
    if (op.lastWhen > now) {
        ++op.pending;
        events_.push(
            Event{op.lastWhen, op.lastSeq, Event::Kind::OpDone, op_id, 0});
    }
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
        keyReply(ops_[op], now + kSharedMemLatency);
        passPort(op, now);
        return;
    }

    const Targets targets = coalesce(
        addrs, mask,
        inst.isAtomic() ? Granularity::Address : Granularity::Line);
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
LdstUnit::completePart(std::uint32_t op_id,
                       std::vector<MemCompletion> &completed)
{
    Op &op = ops_[op_id];
    if (!op.live || op.pending == 0)
        panic("LdstUnit: completion on dead op");
    // A fill can land while the op still has a transaction queued.
    if (--op.pending == 0 && op.queued == 0) {
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
    while (!events_.empty() && events_.top().when <= now) {
        Event ev = events_.top();
        events_.pop();
        if (ev.kind == Event::Kind::OpDone) {
            completePart(ev.op, completed);
        } else {
            // Fill: install the line and land every merged op's part.
            bool dirty = false;
            l1_.fill(ev.line, false, &dirty);
            auto it = mshr_.find(ev.line);
            if (it == mshr_.end())
                panic("LdstUnit: fill without MSHR entry");
            for (std::uint32_t waiting : it->second)
                completePart(waiting, completed);
            mshr_.erase(it);
        }
    }
    portStep(now);
}

void
LdstUnit::portStep(Cycle now)
{
    if (l1Queue_.empty())
        return;
    const Txn txn = l1Queue_.front();
    Op &op = ops_[txn.op];

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
            keyReply(op, memsys_.request(pkt, now));
            break;
        }
        if (l1_.access(line, false)) {
            ++stats_.l1Hits;
            keyReply(op, now + kL1HitLatency);
            break;
        }
        ++stats_.l1Misses;
        auto it = mshr_.find(line);
        if (it != mshr_.end()) {
            // Merge into the outstanding fill.
            it->second.push_back(txn.op);
            ++op.pending;
            if (tracer_.enabled()) {
                tracer_.emit(now, smId_,
                             static_cast<std::int32_t>(op.warp->id()),
                             trace::EventKind::MshrMerge, line);
            }
            break;
        }
        if (mshr_.size() >= cfg_.l1Mshrs) {
            // Structural stall: retry next cycle (the access above still
            // consumed the port, as on hardware replays).
            --stats_.l1Accesses;
            --stats_.energy.l1Accesses;
            if (txn.sync)
                --stats_.syncMemTransactions;
            return;
        }
        if (tracer_.enabled()) {
            tracer_.emit(now, smId_,
                         static_cast<std::int32_t>(op.warp->id()),
                         trace::EventKind::L1Miss, line);
        }
        const MemPacket pkt{line, MemPacket::Type::Read, smId_};
        mshr_.emplace(line, std::vector<std::uint32_t>{txn.op});
        events_.push(Event{memsys_.request(pkt, now), ++eventSeq_,
                           Event::Kind::Fill, 0, line});
        ++op.pending;
        break;
      }
      case MemPacket::Type::Write: {
        Addr line = lineBase(txn.addr);
        // Write-through, no-allocate: update the line if present.
        (void)l1_.access(line, true);
        memsys_.request(MemPacket{line, MemPacket::Type::Write, smId_}, now);
        // Writes get no reply; the transaction is done next cycle.
        keyReply(op, now + 1);
        break;
      }
      case MemPacket::Type::Atomic: {
        const MemPacket pkt{txn.addr, MemPacket::Type::Atomic, smId_,
                            txn.scope};
        keyReply(op, memsys_.request(pkt, now));
        break;
      }
    }
    l1Queue_.pop_front();
    passPort(txn.op, now);
}

}  // namespace bowsim
