#ifndef BOWSIM_METRICS_SAMPLER_HPP
#define BOWSIM_METRICS_SAMPLER_HPP

#include <memory>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/metrics/metrics.hpp"

/**
 * @file
 * Time-series sampling of simulator state (docs/METRICS.md). A
 * MetricsSampler attached to a Gpu (Gpu::setMetrics) snapshots a fixed
 * column schema every `interval` simulated cycles into a MetricsRegistry,
 * plus one boundary row at the end of every launch. Sampling is *pull*:
 * Gpu::launch calls sample() at the end of a cycle, once every SM has
 * run it or, if it sleeps, has been caught up through it, so every
 * value is read from settled state. The idle-cycle fast-forward clamps
 * its clock jumps to the next sample cycle (over-conservative, hence
 * legal under the horizon contract), so skip-on and skip-off runs
 * produce byte-identical series.
 *
 * Samples sit on a *global* cycle grid (multiples of the interval across
 * launches): counter columns accumulate over launches via per-column
 * bases folded at endLaunch(), so the whole series is monotone even for
 * multi-launch harnesses (e.g. NW's two kernels).
 */

namespace bowsim {
class SmCore;
class MemorySystem;
struct KernelStats;
}  // namespace bowsim

namespace bowsim::syncprof {
class SyncProfileRegistry;
}

namespace bowsim::metrics {

/** Where sample() reads from; everything is owned by Gpu::launch.
 *  Multi-device runs list one launch aggregate and one memory system
 *  per device (device-id order); `cores` is a flat, device-major vector
 *  covering every SM in the system. */
struct SampleSources {
    const std::vector<std::unique_ptr<SmCore>> *cores = nullptr;
    /** Per-device launch aggregates (every SM's counters + retired-SM
     *  idle accounting applied by the cycle loop). */
    std::vector<const KernelStats *> launchStats;
    /** Per-device memory systems (device-id order). */
    std::vector<const MemorySystem *> memsys;
    /** Sync-contention profiler, when one is attached (docs/SYNC.md);
     *  feeds the sync_* columns. Read at the end of a cycle like every
     *  other source, so the values are settled and deterministic. */
    const syncprof::SyncProfileRegistry *sync = nullptr;
};

class MetricsSampler {
  public:
    /**
     * @param interval sample spacing in simulated cycles (>= 1)
     * @param path     output file ("" = keep in memory only); a ".csv"
     *                 suffix selects CSV, anything else JSON
     */
    explicit MetricsSampler(Cycle interval, std::string path = "");

    /**
     * Starts a launch: defines the column schema on the first call (the
     * per-SM column block needs @p num_cores — the *system-wide* SM
     * count — and @p num_devices; neither may change between launches
     * of one sampler). Multi-device schemas insert link-traffic columns
     * after the aggregate block and prefix per-SM blocks with the
     * device, e.g. "d1.sm0."; @p has_sync appends the sync_* columns
     * after the link block. Default schemas (single device, no sync
     * profiler) are byte-identical to the pre-device-split layout.
     */
    void beginLaunch(const std::string &kernel, unsigned num_cores,
                     unsigned num_devices, bool has_sync);

    /**
     * Launch-local cycle of the next due sample (the global grid point
     * minus the cycles consumed by earlier launches). Gpu::launch
     * samples when `now >= nextSampleCycle()` and uses the same value to
     * clamp idle-skip clock jumps.
     */
    Cycle nextSampleCycle() const { return nextSampleGlobal_ - cycleBase_; }

    /** Emits one row at launch-local cycle @p now and advances the grid. */
    void sample(Cycle now, const SampleSources &src);

    /**
     * Ends a launch at launch-local cycle @p final_now: emits the
     * boundary row (unless a grid sample already landed there), folds
     * the launch's counters into the cross-launch bases, and re-anchors
     * the grid for the next launch.
     */
    void endLaunch(Cycle final_now, const SampleSources &src);

    /** The sampled series (schema + rows). */
    const MetricsRegistry &registry() const { return reg_; }

    /** Serializes the series (JSON, or CSV for a ".csv" path). */
    std::string serialize() const;

    /** Writes serialize() to the constructor path; no-op when "". */
    void writeFile() const;

  private:
    std::vector<double> collectLocal(Cycle now,
                                     const SampleSources &src) const;
    void emitRow(Cycle now, const std::vector<double> &local);
    void defineColumns(unsigned num_cores, unsigned num_devices,
                       bool has_sync);
    /** First column of the per-SM block for flat (device-major) SM
     *  index @p sm. */
    std::size_t smColBase(unsigned sm) const;

    Cycle interval_;
    std::string path_;
    MetricsRegistry reg_;
    std::vector<std::string> kernels_;
    unsigned numCores_ = 0;
    unsigned numDevices_ = 1;
    /** Columns between the aggregate and per-SM blocks: link-traffic
     *  (0 single-device; 1 aggregate + one per device otherwise) plus
     *  the sync_* block (3 when a sync profiler is attached). */
    std::size_t extraCols_ = 0;
    /** Link-traffic share of extraCols_ (sync columns follow it). */
    std::size_t linkCols_ = 0;
    bool hasSync_ = false;

    /** Simulated cycles consumed by completed launches (grid anchor). */
    Cycle cycleBase_ = 0;
    /** Next sample, in global (cross-launch) cycles. */
    Cycle nextSampleGlobal_ = 0;
    /** Per-column counter bases folded at endLaunch(). */
    std::vector<double> base_;
    std::size_t launchIndex_ = 0;
    Cycle lastSampled_ = 0;
    bool haveSampled_ = false;
};

}  // namespace bowsim::metrics

#endif  // BOWSIM_METRICS_SAMPLER_HPP
