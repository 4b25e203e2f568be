#ifndef BOWSIM_MEM_L2_BANK_HPP
#define BOWSIM_MEM_L2_BANK_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/config.hpp"
#include "src/isa/instruction.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/dram.hpp"
#include "src/mem/interconnect.hpp"
#include "src/mem/system_link.hpp"
#include "src/syncprof/syncprof.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * Banked L2 plus the memory-side network and DRAM channels, composed into
 * a MemorySystem. Atomics bypass the L1 and execute at the home L2 bank
 * (as on real GPUs), where a per-bank service period serializes them —
 * the property that makes failed lock acquires consume memory bandwidth.
 */

namespace bowsim {

/** One request from an SM into the memory system. */
struct MemPacket {
    enum class Type : std::uint8_t { Read, Write, Atomic };

    Addr line = 0;
    Type type = Type::Read;
    unsigned smId = 0;
    /**
     * Memory scope (atomics only): a Device-scope atomic resolves at the
     * issuing device's L2 regardless of the address's home; System-scope
     * atomics — like all plain reads/writes — route to the home device.
     */
    MemScope scope = MemScope::Device;
};

/** One L2 slice with its DRAM channel. */
class L2Bank {
  public:
    L2Bank(const GpuConfig &cfg)
        : cache_(cfg.l2),
          dram_(cfg.dramLatency, cfg.dramServicePeriod),
          hitLatency_(cfg.l2HitLatency),
          atomicPeriod_(cfg.atomicServicePeriod)
    {
    }

    /** What one bank access did (for the caller's observers). */
    struct AccessInfo {
        bool miss = false;
        /** Cycles the request queued behind the bank's service slot. */
        Cycle waited = 0;
    };

    /**
     * Services @p pkt arriving at @p arrival; returns the cycle the bank
     * finishes (data ready to travel back for reads/atomics) and fills
     * @p info.
     */
    Cycle access(const MemPacket &pkt, Cycle arrival, AccessInfo &info);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t atomics() const { return atomics_; }
    /** Total cycles atomics queued behind this bank's service slot. */
    std::uint64_t atomicWaitCycles() const { return atomicWaitCycles_; }
    const Cache &cache() const { return cache_; }
    const DramChannel &dram() const { return dram_; }

  private:
    Cache cache_;
    DramChannel dram_;
    unsigned hitLatency_;
    /** Minimum cycles between atomic operations at this bank. */
    unsigned atomicPeriod_;
    Cycle free_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t atomics_ = 0;
    std::uint64_t atomicWaitCycles_ = 0;
};

/** Aggregate counters for the shared memory system. */
struct MemSystemStats {
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t dramRowActivations = 0;
    std::uint64_t atomics = 0;
    std::uint64_t atomicWaitCycles = 0;
    std::uint64_t icntPackets = 0;
    /** Inter-device link packets this device originated (requests and
     *  replies). Always 0 on a single-device system. */
    std::uint64_t linkPackets = 0;

    MemSystemStats &
    operator+=(const MemSystemStats &o)
    {
        l2Accesses += o.l2Accesses;
        l2Hits += o.l2Hits;
        l2Misses += o.l2Misses;
        dramAccesses += o.dramAccesses;
        dramRowActivations += o.dramRowActivations;
        atomics += o.atomics;
        atomicWaitCycles += o.atomicWaitCycles;
        icntPackets += o.icntPackets;
        linkPackets += o.linkPackets;
        return *this;
    }
};

/**
 * The device-level memory system: SM-to-memory crossbar, L2 banks (one
 * DRAM channel each) and the return network. All timing is analytic —
 * request() directly returns the reply-arrival cycle.
 */
class MemorySystem {
  public:
    explicit MemorySystem(const GpuConfig &cfg);

    /**
     * Issues @p pkt at @p now. Returns the cycle the reply reaches the
     * requesting SM; writes return 0 (no reply — write-through traffic is
     * still modeled and counted).
     */
    Cycle request(const MemPacket &pkt, Cycle now);

    MemSystemStats stats() const;

    /**
     * Attaches the launch's event sink. L2Miss/AtomicSerialize events are
     * stamped with the request cycle (not the bank-arrival cycle) so the
     * emitted stream stays globally timestamp-ordered.
     */
    void setTrace(trace::Tracer t) { tracer_ = t; }

    /**
     * Attaches the launch's sync-contention profiler (docs/SYNC.md).
     * Atomic packets report their bank wait and the local/remote split
     * to the registry, keyed by the byte address the packet carries
     * (atomics serialize per address, so pkt.line is the byte address —
     * the same key the functional hooks use).
     */
    void setSyncProf(syncprof::SyncProf s) { sync_ = s; }

    /**
     * Wires this device's memory system into a multi-device system:
     * @p link is the shared inter-device fabric, @p peers the per-device
     * memory systems indexed by device id (including this one at
     * @p device_id). Without this call the system is single-device and
     * request() never consults the link.
     */
    void
    setSystem(SystemLink *link, MemorySystem *const *peers,
              unsigned device_id, unsigned num_devices)
    {
        link_ = link;
        peers_ = peers;
        deviceId_ = device_id;
        numDevices_ = num_devices;
    }

  private:
    Cycle remoteRequest(const MemPacket &pkt, Cycle now, unsigned home);

    /** The L2 bank that serves @p line. */
    unsigned
    bankOf(Addr line) const
    {
        return static_cast<unsigned>((lineBase(line) / kLineBytes) %
                                     banks_.size());
    }

    /**
     * Services @p pkt at @p home's bank — this device's own, or a peer's
     * for a request that crossed the link, which attaches at the
     * memory-side switch and so bypasses the peer's crossbars — when it
     * arrives there at @p arrival. Reports the access to this device's
     * observers, stamped with the request cycle @p now, and returns the
     * bank's finish cycle.
     */
    Cycle serveAt(MemorySystem &home, const MemPacket &pkt, Cycle now,
                  Cycle arrival);

    GpuConfig cfg_;
    std::vector<L2Bank> banks_;
    Interconnect toMem_;
    Interconnect toSm_;
    trace::Tracer tracer_;
    syncprof::SyncProf sync_;
    SystemLink *link_ = nullptr;
    MemorySystem *const *peers_ = nullptr;
    unsigned deviceId_ = 0;
    unsigned numDevices_ = 1;
    std::uint64_t linkPackets_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_MEM_L2_BANK_HPP
