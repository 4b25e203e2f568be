#ifndef BOWSIM_SIM_DEVICE_HPP
#define BOWSIM_SIM_DEVICE_HPP

#include <cstdint>

#include "src/mem/l2_bank.hpp"
#include "src/sim/sm_core.hpp"

/**
 * @file
 * One GPU device of a multi-device system (docs/PERF.md, "Device
 * sharding"). A Device bundles what used to be the whole simulator's
 * per-launch state: the device-local memory system (L2 banks, DRAM,
 * crossbars), the launch-shared state its SMs mutate (CTA dispatch
 * cursor, stat aggregate, tracer), and the cycle loop's accounting
 * for SMs that retired from the active list. GpuSystem::launch owns
 * one Device per GpuConfig::numDevices and the SM cores themselves in
 * a flat device-major vector, so the single-device layout is exactly
 * the pre-split one.
 */

namespace bowsim {

struct Device {
    Device(unsigned id_, const GpuConfig &cfg) : id(id_), memsys(cfg) {}

    unsigned id = 0;
    /** Device-local L2/DRAM; wired to peers via MemorySystem::setSystem
     *  on multi-device launches. */
    MemorySystem memsys;
    /** State shared by this device's SMs (dispatch cursor, stats, ...). */
    LaunchState launch;
    /** Last cycle on which any of this device's SMs issued. */
    Cycle lastIssue = 0;
    /** SMs retired from the active list; their per-cycle delay-limit
     *  accounting is applied analytically by the cycle loop. */
    std::uint64_t idleCores = 0;
    /** Sum of retired SMs' (from then on constant) back-off limits. */
    std::uint64_t idleDelaySum = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_SIM_DEVICE_HPP
