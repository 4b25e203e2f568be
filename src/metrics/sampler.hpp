#ifndef BOWSIM_METRICS_SAMPLER_HPP
#define BOWSIM_METRICS_SAMPLER_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.hpp"

/**
 * @file
 * Time-series sampling of simulator state (docs/METRICS.md). A
 * MetricsSampler attached to a Gpu (Gpu::setMetrics) snapshots a fixed
 * column schema every `interval` simulated cycles, plus one boundary row
 * at the end of every launch. Sampling is *pull*: Gpu::launch calls
 * sample() at the end of a cycle, once every SM has run it or, if it
 * sleeps, has been caught up through it, so every value is read from
 * settled state. Every counter the stats record holds is read from the
 * launch's stats fold (GpuSystem::finish), the same fold that builds
 * the launch's KernelStats, so the series and the stats cannot
 * disagree. The idle-cycle fast-forward clamps its clock jumps to the
 * next sample cycle (over-conservative, hence legal under the horizon
 * contract), so skip-on and skip-off runs produce byte-identical
 * series.
 *
 * Samples sit on a *global* cycle grid (multiples of the interval across
 * launches): counter columns accumulate over launches via per-column
 * bases folded at endLaunch(), so the whole series is monotone even for
 * multi-launch API callers.
 */

namespace bowsim {
class SmCore;
struct KernelStats;
}  // namespace bowsim

namespace bowsim::syncprof {
class SyncProfileRegistry;
}

namespace bowsim::metrics {

/** How a column's values behave over time (and how they are emitted). */
enum class Kind {
    /** Monotonically non-decreasing event count; emitted as an integer. */
    Counter,
    /** Instantaneous state sampled at the barrier; emitted as an integer. */
    Gauge,
    /** Derived ratio (e.g. IPC); emitted as a double. */
    Rate,
};

const char *toString(Kind kind);

/** One row of a column table (sampler.cpp): name, kind and source. */
struct ColumnDef;

/** One column of the series: a table row, bound to a device or an SM. */
struct MetricColumn {
    std::string name;
    Kind kind = Kind::Counter;
    /** The statsToJson key path of the KernelStats counter the column
     *  mirrors ("mem.l2_accesses"; "cycles" for "cycle"), or nullptr. */
    const char *stat = nullptr;
    const ColumnDef *def = nullptr;
    /** The stats.devices shard a "d<N>." copy of an aggregate column
     *  reads; -1 reads the system-wide record. */
    int device = -1;
    /** Flat (device-major) SM index of a per-SM column; -1 in the
     *  aggregate block. */
    int sm = -1;
};

/**
 * The columns of every schema on @p num_devices devices that mirror a
 * KernelStats counter, in column order. json_check --metrics compares
 * a series' final row against the stats record through these.
 */
std::vector<MetricColumn> statsMirrors(unsigned num_devices);

/** What sample() reads besides the stats fold; owned by Gpu::launch. */
struct SampleSources {
    /** Every SM in the system, flat and device-major. */
    const std::vector<std::unique_ptr<SmCore>> *cores = nullptr;
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
     * Starts a launch: builds the column schema on the first call (the
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

    /**
     * Emits one row from @p stats, the launch's stats fold at the
     * sample cycle (its `cycles` is the launch-local clock), and
     * advances the grid.
     */
    void sample(const KernelStats &stats, const SampleSources &src);

    /**
     * Ends a launch whose final stats fold is @p stats: emits the
     * boundary row (unless a grid sample already landed there), folds
     * the launch's counters into the cross-launch bases, and re-anchors
     * the grid for the next launch.
     */
    void endLaunch(const KernelStats &stats, const SampleSources &src);

    /** The column schema, in column order. */
    const std::vector<MetricColumn> &columns() const { return columns_; }
    /** The sampled rows, one value per column. */
    const std::vector<std::vector<double>> &rows() const { return rows_; }

    /** Serializes the series (JSON, or CSV for a ".csv" path). */
    std::string serialize() const;

    /** Writes serialize() to the constructor path; no-op when "". */
    void writeFile() const;

  private:
    std::vector<double> read(const KernelStats &stats,
                             const SampleSources &src) const;
    void emitRow(const std::vector<double> &local);

    Cycle interval_;
    std::string path_;
    std::vector<MetricColumn> columns_;
    std::vector<std::vector<double>> rows_;
    std::vector<std::string> kernels_;
    unsigned numCores_ = 0;
    unsigned numDevices_ = 1;
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
