#include "src/mem/l2_bank.hpp"

namespace bowsim {

Cycle
L2Bank::access(const MemPacket &pkt, Cycle arrival, AccessInfo &info)
{
    ++accesses_;
    bool is_atomic = pkt.type == MemPacket::Type::Atomic;
    bool is_write = pkt.type == MemPacket::Type::Write;
    if (is_atomic)
        ++atomics_;

    Cycle start = std::max(arrival, free_);
    free_ = start + (is_atomic ? atomicPeriod_ : 1);
    if (is_atomic)
        atomicWaitCycles_ += start - arrival;
    info.waited = start - arrival;

    // Atomics arrive with byte addresses (they serialize per address);
    // the tag array works on line granularity.
    Addr line = lineBase(pkt.line);
    bool hit = cache_.access(line, is_write || is_atomic);
    Cycle tag_done = start + hitLatency_;
    info.miss = !hit;
    if (hit)
        return tag_done;

    // Miss: fetch the line from DRAM and install it (write-allocate).
    bool evicted_dirty = false;
    cache_.fill(line, is_write || is_atomic, &evicted_dirty);
    if (evicted_dirty)
        dram_.scheduleWriteback(tag_done);
    return dram_.schedule(tag_done, line);
}

MemorySystem::MemorySystem(const GpuConfig &cfg)
    : cfg_(cfg),
      toMem_(cfg.numCores, cfg.icntLatency),
      toSm_(cfg.numL2Banks, cfg.icntLatency)
{
    banks_.reserve(cfg.numL2Banks);
    for (unsigned b = 0; b < cfg.numL2Banks; ++b)
        banks_.emplace_back(cfg);
}

Cycle
MemorySystem::request(const MemPacket &pkt, Cycle now)
{
    // Home routing (static line-address interleave): device-scope
    // atomics resolve at the local L2 regardless of the address's home;
    // everything else belongs to its home device. On a single-device
    // system home is always this device, so the link path is never
    // taken and the pre-split timing is preserved byte for byte.
    const bool device_scope_atomic =
        pkt.type == MemPacket::Type::Atomic &&
        pkt.scope == MemScope::Device;
    const unsigned home = device_scope_atomic
                              ? deviceId_
                              : homeDeviceOf(pkt.line, numDevices_);
    if (home != deviceId_)
        return remoteRequest(pkt, now, home);

    const Cycle arrival = toMem_.inject(pkt.smId, now);
    const Cycle bank_done = serveAt(*this, pkt, now, arrival);
    if (pkt.type == MemPacket::Type::Write)
        return 0;
    return toSm_.inject(bankOf(pkt.line), bank_done);
}

Cycle
MemorySystem::remoteRequest(const MemPacket &pkt, Cycle now,
                            unsigned home)
{
    // The request leaves through the memory-side switch: it serializes
    // on the link's egress/ingress ports instead of the SM/L2 crossbars,
    // and its bank access accrues on the home device's counters. Trace
    // events are emitted by the requesting device's tracer so per-device
    // streams stay timestamp-ordered.
    const Cycle arrival = link_->traverse(deviceId_, home, now);
    ++linkPackets_;
    const Cycle bank_done = serveAt(*peers_[home], pkt, now, arrival);
    if (pkt.type == MemPacket::Type::Write)
        return 0;
    ++linkPackets_;
    return link_->traverse(home, deviceId_, bank_done);
}

Cycle
MemorySystem::serveAt(MemorySystem &home, const MemPacket &pkt, Cycle now,
                      Cycle arrival)
{
    L2Bank::AccessInfo info;
    const Cycle done =
        home.banks_[home.bankOf(pkt.line)].access(pkt, arrival, info);
    if (pkt.type == MemPacket::Type::Atomic) {
        tracer_.emit(now, pkt.smId, -1, trace::EventKind::AtomicSerialize,
                     pkt.line, info.waited);
        sync_.onTimedAtomic(pkt.line, info.waited, &home != this);
    }
    if (info.miss) {
        tracer_.emit(now, pkt.smId, -1, trace::EventKind::L2Miss,
                     lineBase(pkt.line));
    }
    return done;
}

MemSystemStats
MemorySystem::stats() const
{
    MemSystemStats s;
    for (const L2Bank &b : banks_) {
        s.l2Accesses += b.accesses();
        s.l2Hits += b.cache().hits();
        s.l2Misses += b.cache().misses();
        s.dramAccesses += b.dram().accesses() + b.dram().writebacks();
        s.dramRowActivations += b.dram().rowActivations();
        s.atomics += b.atomics();
        s.atomicWaitCycles += b.atomicWaitCycles();
    }
    s.icntPackets = toMem_.packets() + toSm_.packets();
    s.linkPackets = linkPackets_;
    return s;
}

}  // namespace bowsim
