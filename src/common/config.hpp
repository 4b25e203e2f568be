#ifndef BOWSIM_COMMON_CONFIG_HPP
#define BOWSIM_COMMON_CONFIG_HPP

#include <cstdint>
#include <string>

#include "src/common/types.hpp"

/**
 * @file
 * Simulator configuration. GpuConfig holds what the two Table II
 * presets (GTX480 "Fermi" and GTX1080Ti "Pascal") set differently plus
 * the experiment axes: scheduler, BOWS, DDOS (Table I), device count
 * and the execution mode, plus one execution knob, idleSkip. Every
 * field but idleSkip is in harness::configToJson (src/harness/sweep.hpp),
 * the one serialized record of a configuration that every artifact
 * writes. Table II values that neither preset nor any experiment varies
 * are the named constants below. A constant is part of the model:
 * changing one changes simulated results without changing any config
 * record, so it is a result change that the golden tests pin.
 */

namespace bowsim {

// --- Core geometry (Table II) ------------------------------------------
/** Resident CTAs per SM. */
inline constexpr unsigned kMaxCtasPerCore = 8;
/** Shared memory per SM, in bytes. */
inline constexpr unsigned kSharedMemPerCore = 48 * 1024;

// --- Latencies GPGPU-Sim would read from its config files --------------
/** ALU writeback latency in cycles. */
inline constexpr unsigned kAluLatency = 4;
/** Multiply/divide writeback latency in cycles. */
inline constexpr unsigned kMulDivLatency = 16;
/** Shared-memory access latency in cycles. */
inline constexpr unsigned kSharedMemLatency = 24;
/** L1 hit latency in cycles. */
inline constexpr unsigned kL1HitLatency = 28;
/** SM <-> L2 crossbar latency in cycles, per direction. */
inline constexpr unsigned kIcntLatency = 24;

// --- Inter-device link (docs/PERF.md, "Device sharding") ---------------
/**
 * Link traversal latency in cycles (one direction, switch excluded).
 * Only consulted when GpuConfig::numDevices > 1.
 */
inline constexpr unsigned kLinkLatency = 700;
/**
 * Minimum cycles between packets on one device's link egress (and,
 * symmetrically, ingress) port — the link serialization delay.
 */
inline constexpr unsigned kLinkServicePeriod = 4;
/** System-level switch hop latency between link ports, in cycles. */
inline constexpr unsigned kSwitchLatency = 100;

// --- DDOS (Table II, "DDOS Specific") ----------------------------------
/** SIB-PT capacity per SM (16 entries, 30 bits each; Table III). */
inline constexpr unsigned kSibTableEntries = 16;
/** Epoch length in cycles when history registers are time-shared. */
inline constexpr Cycle kTimeShareEpoch = 1000;

// --- BOWS (Table II, "BOWS Specific") ----------------------------------
/** Execution window T for the adaptive estimator. */
inline constexpr Cycle kBowsWindow = 1000;
/** Delay step added/removed by the estimator. */
inline constexpr Cycle kBowsDelayStep = 250;
/**
 * SIB-instruction fraction that triggers an increase (FRAC1).
 * Table II lists 0.5; a spin iteration in this ISA is ~5-8
 * instructions (one SIB each), so the dynamic SIB share tops out
 * near 0.2 and 0.5 would never fire. This value keeps the
 * "non-negligible spinning" semantics of Fig. 5 at this ISA's
 * instruction granularity.
 */
inline constexpr double kBowsFrac1 = 0.1;
/** Useful-ratio degradation that triggers a decrease (FRAC2). */
inline constexpr double kBowsFrac2 = 0.8;

/** Baseline warp scheduling policy (Section II of the paper). */
enum class SchedulerKind {
    LRR,      ///< Loose round-robin.
    GTO,      ///< Greedy-then-oldest, with periodic age rotation.
    CAWA,     ///< Criticality-aware warp acceleration [Lee, ISCA'15].
    TwoLevel, ///< Two-level scheduling [Narasiman, MICRO'11] (extension).
};

/** How spin-inducing branches are identified for BOWS. */
enum class SpinDetect {
    Oracle,  ///< Use the kernel's ground-truth SIB annotations.
    Ddos,    ///< Dynamic detection (Section IV of the paper).
};

/** Hashing scheme used by DDOS history registers (Section IV-B). */
enum class HashKind {
    Xor,     ///< Fold all value bits with XOR (paper default).
    Modulo,  ///< Keep only the least-significant bits.
};

/**
 * How a kernel launch is executed (docs/PERF.md, "Execution modes").
 */
enum class ExecMode {
    /** Full cycle-accurate simulation (the default). */
    Cycle,
    /**
     * ISA semantics only: warp-at-a-time interpretation with IPDOM
     * reconvergence against functional memory; scoreboard, pipeline,
     * caches and DRAM timing are skipped. Deterministic by construction
     * (atomics apply in SM-id/warp-slot rotation order), so the final
     * MemorySpace::digest() is reproducible and — for schedule-invariant
     * kernels — identical to cycle mode. KernelStats::cycles is 0.
     */
    Functional,
};

const char *toString(SchedulerKind kind);
const char *toString(SpinDetect kind);
const char *toString(HashKind kind);
const char *toString(ExecMode mode);

/** Parses "cycle" / "functional"; false on anything else. */
bool parseExecMode(const std::string &text, ExecMode *out);

/** DDOS design parameters (Table I / Table II, "DDOS Specific"). */
struct DdosConfig {
    HashKind hash = HashKind::Xor;
    /** Hashed path/value width in bits ("m = k" in the paper). */
    unsigned hashBits = 8;
    /** History register length in entries ("l"). */
    unsigned historyLength = 8;
    /** SIB-PT confidence threshold ("t"). */
    unsigned confidenceThreshold = 4;
    /** Time-share one history-register set among warps ("sh"). */
    bool timeShare = false;
};

/** BOWS design parameters (Table II, "BOWS Specific"). */
struct BowsConfig {
    bool enabled = false;
    /**
     * Ablation knob: move backed-off warps behind all non-backed-off
     * warps (the priority-queue half of BOWS). With this off, only the
     * minimum-spacing delay remains active.
     */
    bool deprioritize = true;
    /**
     * Fixed back-off delay limit in cycles. Ignored when adaptive is
     * true. A value of 0 still deprioritizes spinning warps (they go to
     * the back of the priority queue) but imposes no minimum spacing
     * between spin iterations.
     */
    Cycle delayLimit = 0;
    /** Use the adaptive delay-limit estimator of Fig. 5. */
    bool adaptive = true;
    /** Lower clamp for the adaptive delay limit. */
    Cycle minLimit = 0;
    /** Upper clamp for the adaptive delay limit (14-bit counter). */
    Cycle maxLimit = 10000;
};

/** Memory-hierarchy geometry for one cache (kLineBytes lines). */
struct CacheConfig {
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned ways = 4;

    unsigned numSets() const { return sizeBytes / (ways * kLineBytes); }
};

/**
 * Top-level GPU configuration (Table II "Baseline Configuration" plus the
 * memory latencies GPGPU-Sim would read from its config files).
 */
struct GpuConfig {
    std::string name = "GTX480";

    // --- Core geometry -------------------------------------------------
    unsigned numCores = 15;
    unsigned maxThreadsPerCore = 1536;
    unsigned numRegsPerCore = 32768;
    unsigned numSchedulersPerCore = 2;

    // --- Scheduling -----------------------------------------------------
    SchedulerKind scheduler = SchedulerKind::GTO;
    /** GTO age-rotation period; avoids livelock on HT/ATM (Section VI). */
    Cycle gtoRotatePeriod = 50000;

    BowsConfig bows;
    DdosConfig ddos;
    SpinDetect spinDetect = SpinDetect::Ddos;

    // --- Memory system ---------------------------------------------------
    CacheConfig l1d{16 * 1024, 4};
    /** L1 miss-status holding registers per SM. */
    unsigned l1Mshrs = 32;
    CacheConfig l2{64 * 1024, 8};
    unsigned numL2Banks = 6;
    unsigned l2HitLatency = 120;
    unsigned dramLatency = 220;
    /** Cycles between successive DRAM services on one channel. */
    unsigned dramServicePeriod = 4;
    /**
     * Minimum cycles between atomic operations at one L2 bank (Table II,
     * "atomic service period"). This serialization is what makes failed
     * lock acquires consume memory bandwidth.
     */
    unsigned atomicServicePeriod = 4;

    // --- Clocks (MHz), used to convert cycles to wall time ---------------
    double coreClockMhz = 700.0;

    /** Max cycles before the simulator declares a hang. */
    Cycle watchdogCycles = 400'000'000;

    /**
     * Collect the per-warp issue-stall breakdown (KernelStats::
     * stallCounts) even without a trace sink attached. Off by default:
     * the attribution loop runs once per resident warp per cycle, so it
     * is gated off the hot path. Attaching a trace sink via
     * Gpu::setTraceSink() turns collection on regardless of this flag.
     */
    bool collectStallBreakdown = false;

    /**
     * Event-driven idle-cycle fast-forward: an SM with no ready warp
     * sleeps until the earliest cycle at which one can become ready
     * (writeback, memory completion, back-off deadline, CTA dispatch),
     * stepping only its L1 port meanwhile, and replays the gap's
     * accounting when it wakes; when every SM sleeps and no port is
     * busy, the clock jumps. Deterministic and statistics-exact by
     * construction (see docs/PERF.md for the horizon contract); the
     * flag exists as an escape hatch (--no-skip on the bench binaries)
     * and for differential testing. Ignored — skip is forced off —
     * while a trace sink is attached, because per-cycle IssueStall
     * events cannot be synthesized for skipped cycles. The one field
     * configToJson leaves out, so artifacts are the same with the skip
     * on or off.
     */
    bool idleSkip = true;

    // --- Execution mode (docs/PERF.md, "Execution modes") ----------------
    /**
     * Cycle-accurate or fast-functional execution (--exec-mode on the
     * bench binaries). Functional mode has no timing: observability
     * (traces, stall breakdowns, time-series metrics, sync reports) is
     * forced off — the bench flags that ask for it are a usage error
     * there — and KernelStats::cycles stays 0.
     */
    ExecMode execMode = ExecMode::Cycle;

    // --- Device/system split (docs/PERF.md, "Device sharding") -----------
    /**
     * Number of devices in the simulated system (--devices on the bench
     * binaries). Each device replicates the full core/L2/DRAM geometry
     * above; CTAs of a launch are chunked contiguously across devices
     * and global memory is homed on devices by static line-address
     * interleave, reached over the link modelled by the kLink*
     * constants. 1 (the default) is the single-GPU model and is
     * byte-identical to the pre-split simulator.
     */
    unsigned numDevices = 1;

    /** Warps per core implied by the thread budget. */
    unsigned maxWarpsPerCore() const { return maxThreadsPerCore / kWarpSize; }
};

/**
 * Home device of a byte address under the static line-interleave policy:
 * consecutive cache lines rotate across devices. With one device this is
 * always device 0 (no remote traffic exists).
 */
inline unsigned
homeDeviceOf(Addr addr, unsigned num_devices)
{
    if (num_devices <= 1)
        return 0;
    return static_cast<unsigned>((lineBase(addr) / kLineBytes) %
                                 num_devices);
}

/** Table II GTX480 (Fermi) baseline. */
GpuConfig makeGtx480Config();

/** Table II GTX1080Ti (Pascal) baseline. */
GpuConfig makeGtx1080TiConfig();

}  // namespace bowsim

#endif  // BOWSIM_COMMON_CONFIG_HPP
