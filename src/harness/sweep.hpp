#ifndef BOWSIM_HARNESS_SWEEP_HPP
#define BOWSIM_HARNESS_SWEEP_HPP

#include <functional>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/harness/json.hpp"
#include "src/kernels/registry.hpp"
#include "src/stats/stats.hpp"

namespace bowsim {
class GpuSystem;
using Gpu = GpuSystem;
}

/**
 * @file
 * Parallel simulation sweep harness. A sweep is a list of independent
 * (kernel, GpuConfig) points; SweepRunner executes them on a fixed pool
 * of worker threads. Each point constructs its own Gpu/MemorySystem, so
 * runs are fully isolated and results are bit-identical regardless of
 * the worker count. Results come back in submission order, and a point
 * that throws (e.g. a SimError from the deadlock watchdog) is captured
 * as a per-point error instead of killing the sweep.
 */

namespace bowsim::harness {

/** One independent simulation in a sweep. */
struct SweepPoint {
    /** Unique label for output/JSON rows, e.g. "HT/B500". */
    std::string id;
    /** Registry benchmark name; used when no gpuBody is set. */
    std::string kernel;
    GpuConfig cfg;
    /** Workload scale passed to makeBenchmark for registry points. */
    double scale = 1.0;
    /** Kernel overrides passed to makeBenchmark for registry points. */
    KernelParams params;
    /**
     * Custom workload that needs the Gpu itself (litmus cells, the
     * micro_functional timing loop): the runner constructs Gpu(cfg),
     * attaches observers (trace recorder, metrics sampler, sync
     * profiler), and hands it to this body. When empty the point runs
     * makeBenchmark(kernel, scale, params) on that Gpu.
     */
    std::function<KernelStats(Gpu &)> gpuBody;
    /**
     * When set, the point runs with a ring-buffered trace recorder
     * attached and writes a Chrome trace_event JSON document here (see
     * docs/TRACING.md). The file is written even when the point fails,
     * so the trace window leading up to a watchdog abort is preserved.
     * Each point owns its recorder, so tracing is safe under any --jobs.
     */
    std::string tracePath;
    /**
     * Optional trace category filter ("sync,mem", ...; see
     * trace::parseCategoryFilter and docs/TRACING.md) applied to the
     * recorder when tracePath is set; events outside the selected
     * categories never enter the ring, deepening the retained window.
     * Empty records everything. An unparseable filter fails the point.
     */
    std::string traceFilter;
    /**
     * When set, the point runs with a MetricsSampler attached (interval
     * metricsInterval) and writes the sampled time series here (CSV for
     * a ".csv" suffix, else JSON; see docs/METRICS.md). Written even
     * when the point fails, like tracePath.
     */
    std::string metricsPath;
    /**
     * Sample spacing in simulated cycles for metricsPath; 0 means 1000.
     * A sampler setting, not part of the configuration: the series
     * records it as its "interval".
     */
    Cycle metricsInterval = 0;
    /**
     * When set, the point runs with a sync-contention profiler attached
     * (Gpu::setSyncProf; docs/SYNC.md) and writes its JSON report —
     * top-N hot addresses, latency histograms, fairness, storm
     * intervals — here, validated by `json_check --sync-report`.
     * Written even when the point fails (a livelocked point's report is
     * the interesting one). Deterministic: byte-identical across
     * --jobs and idle-skip.
     */
    std::string syncReportPath;
    /**
     * Attach a sync profiler even without a syncReportPath so the
     * --profile report can include its "hot sync objects" section
     * (SweepResult::syncProfileText). Implied by syncReportPath.
     */
    bool syncProfile = false;
};

/** Outcome of one sweep point. */
struct SweepResult {
    bool ok = false;
    KernelStats stats;
    /** Exception message when !ok. */
    std::string error;
    /** "Hot sync objects" text for the --profile report (points run
     *  with SweepPoint::syncProfile; empty otherwise). */
    std::string syncProfileText;
};

/**
 * Worker count: explicit @p requested if nonzero, else the hardware
 * concurrency (at least 1).
 */
unsigned resolveJobs(unsigned requested = 0);

class SweepRunner {
  public:
    /** @p jobs == 0 resolves via resolveJobs(). */
    explicit SweepRunner(unsigned jobs = 0) : jobs_(resolveJobs(jobs)) {}

    unsigned jobs() const { return jobs_; }

    /**
     * Called after each point finishes, with its submission index and
     * result (e.g. the --progress heartbeat). Invoked from worker
     * threads under a run-internal mutex, so the callback itself needs
     * no locking; keep it cheap — it serializes point completion.
     */
    using PointCallback = std::function<void(std::size_t,
                                            const SweepResult &)>;
    void setPointCallback(PointCallback cb) { callback_ = std::move(cb); }

    /**
     * Runs every point and returns results in submission order. With
     * jobs() == 1 everything runs on the calling thread.
     */
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points) const;

  private:
    unsigned jobs_;
    PointCallback callback_;
};

/**
 * Serializes the interesting fields of @p s (deterministic order).
 * Fatal on NaN/Inf in any floating-point field: such a value is a
 * simulator bug, and emitting it would write an artifact that no JSON
 * parser accepts.
 */
Json statsToJson(const KernelStats &s);

/**
 * The one record of a configuration: every GpuConfig field except the
 * execution knob idleSkip, in one fixed order, plus the kLink*
 * constants on multi-device records (num_devices > 1). Sweep points
 * write it as their "config", the litmus document writes its base
 * configuration's in the header, and json_check checks config blocks
 * against its key list. Artifacts are therefore the same across --jobs,
 * --no-skip and --metrics-interval.
 */
Json configToJson(const GpuConfig &cfg);

/**
 * Builds the --json artifact document for one finished sweep:
 * { "bench", "points": [ {id, kernel, scale, [params], ok, config,
 * stats|error} ] }; "params" appears only on points with kernel
 * overrides.
 */
Json sweepToJson(const std::string &bench_name,
                 const std::vector<SweepPoint> &points,
                 const std::vector<SweepResult> &results);

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_SWEEP_HPP
