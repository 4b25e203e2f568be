#ifndef BOWSIM_ENERGY_ENERGY_MODEL_HPP
#define BOWSIM_ENERGY_ENERGY_MODEL_HPP

#include <cstdint>

/**
 * @file
 * Event-based dynamic-energy model standing in for GPUWattch. GPUWattch
 * couples per-event activity counts from GPGPU-Sim with McPAT circuit
 * models; this model keeps the activity counting and replaces the circuit
 * models with fixed per-event energies (in pJ, ballpark 40 nm figures).
 * The paper reports *normalized* dynamic energy, which depends on the
 * activity deltas between schedulers — exactly what these counters carry.
 */

namespace bowsim {

/** Activity counters accumulated during one kernel run. */
struct EnergyEvents {
    std::uint64_t warpInstructions = 0;  ///< fetch/decode/issue events
    std::uint64_t laneAluOps = 0;        ///< per-lane execute operations
    std::uint64_t rfReadLanes = 0;       ///< operand reads x active lanes
    std::uint64_t rfWriteLanes = 0;      ///< result writes x active lanes
    std::uint64_t sharedAccesses = 0;    ///< shared-memory transactions
    std::uint64_t l1Accesses = 0;        ///< L1D transactions
    std::uint64_t l2Accesses = 0;        ///< L2 transactions
    std::uint64_t dramAccesses = 0;      ///< DRAM bursts
    std::uint64_t icntPackets = 0;       ///< NoC packets
    std::uint64_t atomicOps = 0;         ///< atomic RMWs at the L2

    EnergyEvents &
    operator+=(const EnergyEvents &o)
    {
        warpInstructions += o.warpInstructions;
        laneAluOps += o.laneAluOps;
        rfReadLanes += o.rfReadLanes;
        rfWriteLanes += o.rfWriteLanes;
        sharedAccesses += o.sharedAccesses;
        l1Accesses += o.l1Accesses;
        l2Accesses += o.l2Accesses;
        dramAccesses += o.dramAccesses;
        icntPackets += o.icntPackets;
        atomicOps += o.atomicOps;
        return *this;
    }
};

/** Per-event energies in picojoules. */
struct EnergyCosts {
    double issuePj = 35.0;     ///< fetch + decode + schedule, per warp inst
    double aluLanePj = 2.2;    ///< one lane-op
    double rfLanePj = 1.1;     ///< one lane-register access
    double sharedPj = 22.0;    ///< one shared-memory transaction
    double l1Pj = 36.0;        ///< one L1D transaction
    double l2Pj = 84.0;        ///< one L2 transaction
    double dramPj = 320.0;     ///< one DRAM burst
    double icntPj = 26.0;      ///< one NoC packet
    double atomicPj = 110.0;   ///< one atomic RMW at an L2 bank
    /**
     * Static/leakage energy per SM-cycle. Unlike the event energies
     * this scales with runtime, so idle (spin-wait) cycles cost energy
     * even when no instruction issues — the effect BOWS targets. Kept
     * out of dynamicEnergyNj() so the paper's normalized-dynamic-energy
     * figures are unchanged; KernelStats reports it separately.
     */
    double staticPerSmCyclePj = 65.0;
};

class EnergyModel {
  public:
    EnergyModel() = default;
    explicit EnergyModel(const EnergyCosts &costs) : costs_(costs) {}

    /** Total dynamic energy for @p ev, in nanojoules. */
    double
    dynamicEnergyNj(const EnergyEvents &ev) const
    {
        double pj = 0.0;
        pj += costs_.issuePj * ev.warpInstructions;
        pj += costs_.aluLanePj * ev.laneAluOps;
        pj += costs_.rfLanePj * (ev.rfReadLanes + ev.rfWriteLanes);
        pj += costs_.sharedPj * ev.sharedAccesses;
        pj += costs_.l1Pj * ev.l1Accesses;
        pj += costs_.l2Pj * ev.l2Accesses;
        pj += costs_.dramPj * ev.dramAccesses;
        pj += costs_.icntPj * ev.icntPackets;
        pj += costs_.atomicPj * ev.atomicOps;
        return pj / 1000.0;
    }

    /**
     * Static energy for @p sm_cycles total SM-cycles (the sum over SMs
     * of cycles spent resident in the launch), in nanojoules. Computed
     * from the aggregate counter, so it is exact under idle-cycle
     * fast-forward, which advances a sleeping SM's smCycles in bulk
     * when it catches up.
     */
    double
    staticEnergyNj(std::uint64_t sm_cycles) const
    {
        return costs_.staticPerSmCyclePj * static_cast<double>(sm_cycles) /
               1000.0;
    }

    const EnergyCosts &costs() const { return costs_; }

  private:
    EnergyCosts costs_;
};

}  // namespace bowsim

#endif  // BOWSIM_ENERGY_ENERGY_MODEL_HPP
