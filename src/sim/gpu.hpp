#ifndef BOWSIM_SIM_GPU_HPP
#define BOWSIM_SIM_GPU_HPP

#include <memory>
#include <vector>

#include "src/common/config.hpp"
#include "src/energy/energy_model.hpp"
#include "src/isa/program.hpp"
#include "src/mem/memory_space.hpp"
#include "src/sim/sm_core.hpp"
#include "src/stats/stats.hpp"

/**
 * @file
 * Public simulator facade. Typical use:
 *
 *     GpuConfig cfg = makeGtx480Config();
 *     cfg.bows.enabled = true;
 *     Gpu gpu(cfg);
 *     Addr buf = gpu.malloc(bytes);
 *     gpu.memcpyToDevice(buf, host.data(), bytes);
 *     Program prog = assemble(kernel_source);
 *     KernelStats stats = gpu.launch(prog, {grid}, {block}, {buf, n});
 *     gpu.memcpyFromDevice(host.data(), buf, bytes);
 *
 * The facade models a *system*: GpuConfig::numDevices devices, each
 * with its own SMs, L2 and DRAM, sharing one functional memory space
 * and one inter-device link (docs/PERF.md, "Device sharding"). The
 * historical name `Gpu` is an alias for GpuSystem; with the default
 * numDevices = 1 the system degenerates to a single device and every
 * artifact is byte-identical to the pre-split simulator.
 */

namespace bowsim {

namespace metrics {
class MetricsSampler;
}

/**
 * Partial statistics captured when a launch dies on a SimError (the
 * cycle watchdog, or functional mode's progress checks). The litmus
 * harness (src/harness/litmus.*) classifies the abort from these:
 * whether warps were still issuing, and how spin-dominated the
 * instruction stream was. Deterministic across idle-skip: sleeping SMs
 * are caught up to the state the cycle-everything loop leaves at the
 * throw, and the stats are exact by the fast-forward contract
 * (docs/PERF.md).
 */
struct LaunchAbort {
    bool valid = false;
    /** What ended the launch; the litmus harness classifies only the
     *  hangs and rethrows a Fault. */
    AbortCause cause = AbortCause::Fault;
    /** System-wide stats at the abort point, folded like a finished
     *  launch's: memory-system counters included, and per-device shards
     *  in stats.perDevice on multi-device launches, in both modes. */
    KernelStats stats;
    /** Cycle of the last settled simulated cycle (0 in functional). */
    Cycle atCycle = 0;
    /** Last cycle on which any SM of any device issued an instruction. */
    Cycle lastIssueCycle = 0;
};

class GpuSystem {
  public:
    explicit GpuSystem(GpuConfig cfg);

    /** Allocates device memory; contents are zero-initialized. */
    Addr malloc(std::uint64_t bytes);

    void memcpyToDevice(Addr dst, const void *src, std::uint64_t bytes);
    void memcpyFromDevice(void *dst, Addr src, std::uint64_t bytes);

    /** Direct functional-memory access (tests and host-side setup). */
    MemorySpace &mem() { return mem_; }
    const MemorySpace &mem() const { return mem_; }

    /**
     * Runs @p prog to completion and returns its statistics. Timing state
     * (caches, queues) starts cold at each launch; functional memory
     * persists across launches. A program that fails verify() throws a
     * FatalError naming each failing pc and rule before anything runs.
     *
     * GpuConfig::execMode selects how (docs/PERF.md, "Execution
     * modes"): full cycle-accurate simulation (the default) or fast
     * functional interpretation (cycles = 0, timing skipped).
     * Functional mode forces the trace sink and metrics sampler off.
     */
    KernelStats launch(const Program &prog, Dim3 grid, Dim3 block,
                       const std::vector<Word> &params);

    /**
     * Attaches @p sink to every subsequent launch (nullptr detaches).
     * Tracing is purely observational: traced and untraced runs of the
     * same configuration produce bit-identical results. Attaching a sink
     * also turns on the per-warp stall breakdown in KernelStats.
     */
    void setTraceSink(trace::TraceSink *sink) { traceSink_ = sink; }

    /**
     * Attaches a time-series metrics sampler to every subsequent launch
     * (nullptr detaches). Observational like tracing — sampled and
     * unsampled runs produce bit-identical results — but, unlike
     * tracing, compatible with idle-skip: samples are pulled at the end
     * of a cycle, once every SM has run it or been caught up through
     * it, and clock jumps are clamped so the clock always lands exactly
     * on sample cycles (see docs/METRICS.md for the determinism
     * contract).
     */
    void setMetrics(metrics::MetricsSampler *sampler)
    {
        metrics_ = sampler;
    }

    /**
     * Attaches a sync-contention profiler to every subsequent launch
     * (nullptr detaches; see docs/SYNC.md). Observational like tracing
     * and, like the metrics sampler, compatible with idle-skip: the
     * functional hooks fire on the atomic/store path at issue, the timed
     * hooks only accumulate commutative per-address sums, so the
     * registry contents — and a --sync-report dump — are byte-identical
     * across --jobs, idle-skip and device count. Cycle mode only:
     * functional launches leave the registry untouched.
     */
    void setSyncProf(syncprof::SyncProfileRegistry *registry)
    {
        syncProf_ = registry;
    }

    /** The attached sync profiler registry (nullptr when detached). */
    syncprof::SyncProfileRegistry *syncProf() const { return syncProf_; }

    const GpuConfig &config() const { return cfg_; }

    /**
     * The abort record of the most recent launch that threw a SimError
     * (valid == false after a successful launch). The stats snapshot is
     * what KernelStats would have reported had the launch ended at the
     * abort cycle.
     */
    const LaunchAbort &lastAbort() const { return abort_; }

  private:
    /** The two engines, each over launch()'s per-device states. */
    KernelStats launchCycle(std::vector<LaunchState> &launches);
    KernelStats launchFunctional(std::vector<LaunchState> &launches);

    /**
     * The one stats fold, for both engines' success and abort exits:
     * each device's stats at clock @p at (memory-system counters added
     * in cycle mode), summed in device-id order with the per-SM tables
     * concatenated and the shards kept in KernelStats::perDevice on
     * multi-device launches. Energy and DDOS accuracy are computed
     * only from @p cores, which only a finished cycle launch passes.
     */
    KernelStats finish(const std::vector<LaunchState> &launches,
                       const std::vector<std::unique_ptr<SmCore>> &cores,
                       Cycle at) const;

    GpuConfig cfg_;
    MemorySpace mem_;
    EnergyModel energy_;
    trace::TraceSink *traceSink_ = nullptr;
    metrics::MetricsSampler *metrics_ = nullptr;
    syncprof::SyncProfileRegistry *syncProf_ = nullptr;
    /** Abort record of the most recent failed launch (lastAbort()). */
    LaunchAbort abort_;
};

/** Historical name; every existing call site keeps compiling. */
using Gpu = GpuSystem;

}  // namespace bowsim

#endif  // BOWSIM_SIM_GPU_HPP
