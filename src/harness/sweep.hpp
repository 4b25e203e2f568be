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

class ResultCache;

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
     * profiler), and hands it to this body. The runner cannot see what
     * a closure does or returns through side effects, so such a point
     * always simulates and is never cached. When empty the point runs
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
    /** How the result was obtained (sweep artifacts do not record
     *  this — cold and warm runs must emit identical points). */
    enum class Source { Simulated, CacheHit };

    bool ok = false;
    KernelStats stats;
    /** Exception message when !ok. */
    std::string error;
    Source source = Source::Simulated;
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
     * Attaches a persistent result cache (docs/BENCH.md, "Result
     * cache"): before dispatching a point to a worker the runner
     * consults the cache and serves a fingerprint hit without
     * simulating; misses simulate and (rw mode) store their result as
     * soon as the point finishes, so rerunning an interrupted sweep
     * serves its finished points as hits. Points with side outputs
     * (tracePath/metricsPath/syncReportPath/syncProfile) and points the
     * fingerprinter cannot key (gpuBody closures) bypass the cache and
     * are counted as such. @p cache must outlive run(); nullptr
     * detaches.
     */
    void setCache(ResultCache *cache) { cache_ = cache; }

    /**
     * Runs every point and returns results in submission order. With
     * jobs() == 1 everything runs on the calling thread.
     */
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points) const;

  private:
    SweepResult execPoint(const SweepPoint &point) const;

    unsigned jobs_;
    PointCallback callback_;
    ResultCache *cache_ = nullptr;
};

/**
 * Serializes the interesting fields of @p s (deterministic order).
 * Fatal on NaN/Inf in any floating-point field — such a value is a
 * simulator bug, and emitting it would produce invalid JSON that a
 * cache read would then silently treat as a corrupt record.
 */
Json statsToJson(const KernelStats &s);

/**
 * Inverse of statsToJson: rebuilds a KernelStats from its JSON form.
 * Raw counters are read back exactly; derived fields (ipc,
 * simd_efficiency, avg_delay_limit, the ddos rates, the per-cause
 * stall totals) are recomputed from the raws, so
 * statsToJson(statsFromJson(j)) == j byte-for-byte. Throws FatalError
 * on missing or ill-typed fields (the result cache maps that to a
 * miss).
 */
KernelStats statsFromJson(const Json &j);

/**
 * The one record of a configuration: every GpuConfig field except the
 * execution knob idleSkip, in one fixed order, plus the kLink*
 * constants on multi-device records (num_devices > 1). Sweep points
 * write it as their "config", the litmus document writes its base
 * configuration's in the header, the result cache keys on its dump, and
 * json_check checks config blocks against its key list. Artifacts and
 * keys are therefore the same across --jobs, --no-skip and
 * --metrics-interval.
 */
Json configToJson(const GpuConfig &cfg);

/**
 * Builds the --json artifact document for one finished sweep:
 * { "bench", ["cache"], "points": [ {id, kernel, scale, [params], ok,
 * config, stats|error} ] }; "params" appears only on points with kernel
 * overrides. When @p cache is non-null a "cache" block records its mode
 * and hit/miss/stored/bypassed counters (validated by json_check); the
 * "points" array is identical either way, so cold and warm runs differ
 * only in that block.
 */
Json sweepToJson(const std::string &bench_name,
                 const std::vector<SweepPoint> &points,
                 const std::vector<SweepResult> &results,
                 const ResultCache *cache = nullptr);

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_SWEEP_HPP
