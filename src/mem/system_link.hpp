#ifndef BOWSIM_MEM_SYSTEM_LINK_HPP
#define BOWSIM_MEM_SYSTEM_LINK_HPP

#include <cstdint>
#include <vector>

#include "src/common/config.hpp"

/**
 * @file
 * The inter-device link of the multi-GPU system (docs/PERF.md, "Device
 * sharding"): an NVLink-like point-to-point fabric routed through one
 * system-level switch. The model is analytic, like Interconnect — each
 * traversal serializes on the source device's egress port and the
 * destination device's ingress port (one packet per kLinkServicePeriod
 * per direction), then pays the switch hop (kSwitchLatency) plus the
 * link latency (kLinkLatency).
 *
 * Determinism: traverse() mutates port state, so it is only legal from
 * the cycle loop's fixed request order — the same contract MemorySystem
 * already has; a sleeping SM's L1-port step requests at its place in
 * that order too. Horizon: a link traversal's completion is folded into
 * the reply cycle MemorySystem::request() returns, which the requesting
 * SM's LD/ST unit keys into the instruction's one completion event at
 * request time (docs/PERF.md, "One completion event per instruction"),
 * so that SM's own nextWorkCycle covers link events with no separate
 * term, and no other SM has to wake it.
 */

namespace bowsim {

class SystemLink {
  public:
    explicit SystemLink(const GpuConfig &cfg)
        : egressFree_(cfg.numDevices, 0), ingressFree_(cfg.numDevices, 0)
    {
    }

    /**
     * Sends one packet from device @p src to device @p dst, entering the
     * fabric at @p now; returns the arrival cycle at @p dst. Must be
     * called in serialized request order (see file comment).
     */
    Cycle
    traverse(unsigned src, unsigned dst, Cycle now)
    {
        ++packets_;
        const Cycle egress = std::max(now, egressFree_[src]);
        egressFree_[src] = egress + kLinkServicePeriod;
        const Cycle at_switch = egress + kSwitchLatency;
        const Cycle ingress = std::max(at_switch, ingressFree_[dst]);
        ingressFree_[dst] = ingress + kLinkServicePeriod;
        return ingress + kLinkLatency;
    }

    /** Total packets carried, both directions, all device pairs. */
    std::uint64_t packets() const { return packets_; }

  private:
    std::vector<Cycle> egressFree_;
    std::vector<Cycle> ingressFree_;
    std::uint64_t packets_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_MEM_SYSTEM_LINK_HPP
