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
 * destination device's ingress port (one packet per linkServicePeriod
 * per direction), then pays the switch hop plus the link latency.
 *
 * Determinism: traverse() mutates port state, so it is only legal from
 * the cycle loop's fixed request order — the same contract MemorySystem
 * already has. System horizon: a link traversal's completion is
 * folded into the reply cycle MemorySystem::request() returns, which
 * lands in the requesting SM's LD/ST event queue, so the idle-skip
 * horizon (min over SMs' nextWorkCycle) covers link events with no
 * separate term.
 */

namespace bowsim {

class SystemLink {
  public:
    explicit SystemLink(const GpuConfig &cfg)
        : latency_(cfg.linkLatency), switchLatency_(cfg.switchLatency),
          period_(cfg.linkServicePeriod > 0 ? cfg.linkServicePeriod : 1),
          egressFree_(cfg.numDevices, 0), ingressFree_(cfg.numDevices, 0)
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
        egressFree_[src] = egress + period_;
        const Cycle at_switch = egress + switchLatency_;
        const Cycle ingress = std::max(at_switch, ingressFree_[dst]);
        ingressFree_[dst] = ingress + period_;
        return ingress + latency_;
    }

    /** Total packets carried, both directions, all device pairs. */
    std::uint64_t packets() const { return packets_; }

  private:
    Cycle latency_;
    Cycle switchLatency_;
    unsigned period_;
    std::vector<Cycle> egressFree_;
    std::vector<Cycle> ingressFree_;
    std::uint64_t packets_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_MEM_SYSTEM_LINK_HPP
