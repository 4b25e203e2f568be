#ifndef BOWSIM_BENCH_BENCH_COMMON_HPP
#define BOWSIM_BENCH_BENCH_COMMON_HPP

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/result_cache.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/registry.hpp"
#include "src/metrics/kernel_profile.hpp"
#include "src/metrics/progress.hpp"
#include "src/sim/gpu.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses. Each bench
 * binary regenerates one table or figure of the paper; rows print as
 * tab-separated text so results can be diffed and plotted directly.
 *
 * Every binary declares its simulations as a Sweep — an ordered list of
 * independent (kernel, GpuConfig) points — and executes it through
 * runSweep(), which runs the points on a worker pool (--jobs=N /
 * BOWSIM_JOBS) and optionally writes a machine-readable artifact
 * (--json=FILE). Results come back in declaration order, so the printed
 * tables are byte-identical regardless of the worker count.
 */

namespace bowsim::bench {

using harness::SweepPoint;
using harness::SweepResult;

/** Command-line options shared by every bench binary (see docs/BENCH.md). */
struct BenchOptions {
    /** Workload scale factor (--scale / BOWSIM_SCALE). */
    double scale = 1.0;
    /** Simulated core count override; 0 leaves each config untouched
     *  (--cores / BOWSIM_CORES). */
    unsigned cores = 0;
    /**
     * Simulated device (GPU) count override; 0 leaves each config
     * untouched (--devices / BOWSIM_DEVICES). Values above 1 shard the
     * launch across that many devices joined by the modeled
     * inter-device link (docs/PERF.md, "Device sharding"). Recorded per
     * point as config.num_devices when it differs from 1.
     */
    unsigned devices = 0;
    /** Sweep worker threads; 0 resolves via BOWSIM_JOBS, then the
     *  hardware concurrency (--jobs / BOWSIM_JOBS). */
    unsigned jobs = 0;
    /** When set, runSweep() writes the sweep artifact here (--json). */
    std::string jsonPath;
    /**
     * When set, every point records a Chrome trace to a per-point file
     * derived from this base path (--trace / BOWSIM_TRACE): "out.json"
     * becomes "out.HT_B500.json" for point "HT/B500". Per-point files
     * keep tracing safe under --jobs > 1.
     */
    std::string tracePath;
    /**
     * Trace category filter (--trace-filter / BOWSIM_TRACE_FILTER):
     * comma-separated category tokens (pipe, mem, ddos, bows, barrier,
     * or the alias sync = ddos|bows|barrier; docs/TRACING.md) applied to
     * every point's trace recorder. Only meaningful with --trace.
     */
    std::string traceFilter;
    /**
     * Escape hatch for the idle-cycle fast-forward (--no-skip /
     * BOWSIM_NO_SKIP): forces GpuConfig::idleSkip off on every point.
     * Results are bit-identical either way (that is tested); the flag
     * exists for wall-clock comparisons and for ruling the skip logic
     * out when debugging. Recorded per point in the JSON artifact as
     * config.idle_skip.
     */
    bool noSkip = false;
    /**
     * When set, every point records a metrics time series to a
     * per-point file derived from this base path (--metrics /
     * BOWSIM_METRICS), named like --trace fan-out. A ".csv" suffix
     * selects CSV output, anything else JSON (docs/METRICS.md).
     */
    std::string metricsPath;
    /**
     * When set, every point runs with the sync-contention profiler
     * attached and writes its JSON report to a per-point file derived
     * from this base path (--sync-report / BOWSIM_SYNC_REPORT), named
     * like --trace fan-out and validated by `json_check --sync-report`
     * (docs/SYNC.md).
     */
    std::string syncReportPath;
    /**
     * Sample spacing in simulated cycles (--metrics-interval /
     * BOWSIM_METRICS_INTERVAL). 0 defers to each point's config, which
     * defaults to 1000 when --metrics is on. Recorded per point as
     * config.metrics_interval.
     */
    Cycle metricsInterval = 0;
    /**
     * Per-kernel profile reports (--profile / BOWSIM_PROFILE): turns on
     * GpuConfig::collectStallBreakdown for every point and prints
     * metrics::profileReport after the sweep — per-scheduler-unit issue
     * distribution, peak-vs-mean occupancy, ranked stall causes, and
     * the top warps by back-off residency.
     */
    bool profile = false;
    /**
     * Sweep heartbeat (--progress / BOWSIM_PROGRESS): one stderr status
     * line rewritten after every finished point with done/total counts,
     * aggregate sim-cycles/s, and an ETA. stdout is untouched.
     */
    bool progress = false;
    /**
     * Execution mode override (--exec-mode=cycle|functional /
     * BOWSIM_EXEC_MODE): forces GpuConfig::execMode on every point.
     * hasExecMode distinguishes "not given" from an explicit cycle.
     * Recorded per point as config.exec_mode (docs/PERF.md, "Execution
     * modes").
     */
    bool hasExecMode = false;
    ExecMode execMode = ExecMode::Cycle;
    /**
     * Persistent result cache (--cache=off|ro|rw / BOWSIM_CACHE; see
     * docs/BENCH.md, "Result cache & resume"). Off by default: caching
     * is opt-in so a default invocation always re-simulates.
     */
    harness::CacheMode cacheMode = harness::CacheMode::Off;
    /** Cache directory (--cache-dir= / BOWSIM_CACHE_DIR); defaults to
     *  .bowsim-cache in the working directory. */
    std::string cacheDir = ".bowsim-cache";
    /**
     * Resume an interrupted sweep from its journal (--resume /
     * BOWSIM_RESUME): journaled points are served without simulation,
     * everything else runs. Requires the cache to be on (the journal
     * lives in the cache directory); --cache=off with --resume is a
     * usage error.
     */
    bool resume = false;
};

/** Sanitizes a point id into a filename fragment (slashes etc. -> '_'). */
inline std::string
sanitizeId(const std::string &id)
{
    std::string out = id;
    for (char &c : out) {
        bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
        if (!keep)
            c = '_';
    }
    return out;
}

/** Derives the per-point trace file: BASE.POINT.json next to BASE. */
inline std::string
tracePathFor(const std::string &base, const std::string &id)
{
    std::string stem = base;
    std::string ext = ".json";
    std::size_t slash = stem.find_last_of('/');
    std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        ext = stem.substr(dot);
        stem.resize(dot);
    }
    return stem + "." + sanitizeId(id) + ext;
}

/**
 * Parses --scale= / --cores= / --devices= / --jobs= / --json= /
 * --trace= / --trace-filter= / --no-skip / --metrics= /
 * --metrics-interval= / --sync-report= / --profile /
 * --progress / --exec-mode= / --cache= / --cache-dir= / --resume
 * plus the corresponding
 * BOWSIM_* environment variables (flags win over the environment, the
 * environment wins over the bench's defaults). Unknown arguments are
 * ignored so binaries with their own flags can share the parser.
 */
inline BenchOptions
parseOptions(int argc, char **argv, double default_scale = 1.0,
             unsigned default_cores = 0)
{
    BenchOptions o;
    o.scale = default_scale;
    o.cores = default_cores;
    if (const char *env = std::getenv("BOWSIM_SCALE"))
        o.scale = std::atof(env);
    if (const char *env = std::getenv("BOWSIM_CORES"))
        o.cores = static_cast<unsigned>(std::atoi(env));
    if (const char *env = std::getenv("BOWSIM_DEVICES"))
        o.devices = static_cast<unsigned>(std::atoi(env));
    if (const char *env = std::getenv("BOWSIM_TRACE"))
        o.tracePath = env;
    if (const char *env = std::getenv("BOWSIM_TRACE_FILTER"))
        o.traceFilter = env;
    if (const char *env = std::getenv("BOWSIM_SYNC_REPORT"))
        o.syncReportPath = env;
    if (const char *env = std::getenv("BOWSIM_NO_SKIP"))
        o.noSkip = env[0] != '\0' && env[0] != '0';
    if (const char *env = std::getenv("BOWSIM_METRICS"))
        o.metricsPath = env;
    if (const char *env = std::getenv("BOWSIM_METRICS_INTERVAL"))
        o.metricsInterval = static_cast<Cycle>(std::atoll(env));
    if (const char *env = std::getenv("BOWSIM_PROFILE"))
        o.profile = env[0] != '\0' && env[0] != '0';
    if (const char *env = std::getenv("BOWSIM_PROGRESS"))
        o.progress = env[0] != '\0' && env[0] != '0';
    auto setExecMode = [&o](const char *text) {
        if (!parseExecMode(text, &o.execMode)) {
            std::fprintf(stderr,
                         "error: unknown exec mode '%s' (expected "
                         "cycle or functional)\n",
                         text);
            std::exit(2);
        }
        o.hasExecMode = true;
    };
    if (const char *env = std::getenv("BOWSIM_EXEC_MODE"))
        setExecMode(env);
    auto setCacheMode = [&o](const char *text) {
        if (!harness::parseCacheMode(text, &o.cacheMode)) {
            std::fprintf(stderr,
                         "error: unknown cache mode '%s' (expected "
                         "off, ro or rw)\n",
                         text);
            std::exit(2);
        }
    };
    if (const char *env = std::getenv("BOWSIM_CACHE"))
        setCacheMode(env);
    if (const char *env = std::getenv("BOWSIM_CACHE_DIR"))
        o.cacheDir = env;
    if (const char *env = std::getenv("BOWSIM_RESUME"))
        o.resume = env[0] != '\0' && env[0] != '0';
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--scale=", 8) == 0)
            o.scale = std::atof(argv[i] + 8);
        else if (std::strncmp(argv[i], "--cores=", 8) == 0)
            o.cores = static_cast<unsigned>(std::atoi(argv[i] + 8));
        else if (std::strncmp(argv[i], "--devices=", 10) == 0)
            o.devices = static_cast<unsigned>(std::atoi(argv[i] + 10));
        else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
            o.jobs = static_cast<unsigned>(std::atoi(argv[i] + 7));
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            o.jsonPath = argv[i] + 7;
        else if (std::strncmp(argv[i], "--trace=", 8) == 0)
            o.tracePath = argv[i] + 8;
        else if (std::strncmp(argv[i], "--trace-filter=", 15) == 0)
            o.traceFilter = argv[i] + 15;
        else if (std::strncmp(argv[i], "--sync-report=", 14) == 0)
            o.syncReportPath = argv[i] + 14;
        else if (std::strcmp(argv[i], "--no-skip") == 0)
            o.noSkip = true;
        else if (std::strncmp(argv[i], "--metrics-interval=", 19) == 0)
            o.metricsInterval = static_cast<Cycle>(std::atoll(argv[i] + 19));
        else if (std::strncmp(argv[i], "--metrics=", 10) == 0)
            o.metricsPath = argv[i] + 10;
        else if (std::strcmp(argv[i], "--profile") == 0)
            o.profile = true;
        else if (std::strcmp(argv[i], "--progress") == 0)
            o.progress = true;
        else if (std::strncmp(argv[i], "--exec-mode=", 12) == 0)
            setExecMode(argv[i] + 12);
        else if (std::strncmp(argv[i], "--cache=", 8) == 0)
            setCacheMode(argv[i] + 8);
        else if (std::strncmp(argv[i], "--cache-dir=", 12) == 0)
            o.cacheDir = argv[i] + 12;
        else if (std::strcmp(argv[i], "--resume") == 0)
            o.resume = true;
    }
    if (!o.traceFilter.empty()) {
        std::uint32_t mask = 0;
        if (!trace::parseCategoryFilter(o.traceFilter, &mask)) {
            std::fprintf(stderr,
                         "error: bad --trace-filter '%s' (expected a "
                         "comma list of pipe, mem, ddos, bows, barrier "
                         "or sync)\n",
                         o.traceFilter.c_str());
            std::exit(2);
        }
    }
    if (o.resume && o.cacheMode == harness::CacheMode::Off) {
        std::fprintf(stderr,
                     "error: --resume requires --cache=ro or rw (the "
                     "resume journal lives in the cache directory)\n");
        std::exit(2);
    }
    if (o.execMode == ExecMode::Functional &&
        (!o.tracePath.empty() || !o.metricsPath.empty() ||
         !o.syncReportPath.empty())) {
        // Functional mode has no cycles and observes nothing, so these
        // files would come out empty.
        std::fprintf(stderr,
                     "error: --trace, --metrics and --sync-report need "
                     "--exec-mode=cycle\n");
        std::exit(2);
    }
    return o;
}

/** Applies the --cores override, when one was given. */
inline void
applyCores(const BenchOptions &opts, GpuConfig &cfg)
{
    if (opts.cores != 0)
        cfg.numCores = opts.cores;
}

/** Declarative sweep: the simulations one bench binary performs. */
struct Sweep {
    /** Bench name recorded in the JSON artifact, e.g. "fig10_delay_sweep". */
    std::string name;
    std::vector<SweepPoint> points;

    /** Adds a registry-kernel point; returns its index. */
    size_t
    add(std::string id, std::string kernel, GpuConfig cfg, double scale)
    {
        SweepPoint p;
        p.id = std::move(id);
        p.kernel = std::move(kernel);
        p.cfg = cfg;
        p.scale = scale;
        points.push_back(std::move(p));
        return points.size() - 1;
    }

    /**
     * Adds a custom point (non-registry parameterizations) that runs on
     * a runner-provided Gpu. The runner owns Gpu construction, so
     * --trace/--metrics/--no-skip/--profile all apply.
     * @p cache_salt opts the point into the result cache: it must cover
     * everything the closure's behavior depends on beyond the config —
     * at minimum fingerprintPrograms() of the harness it runs plus all
     * baked-in parameters (see SweepPoint::cacheSalt). Empty (the
     * default) keeps the point uncacheable.
     */
    size_t
    add(std::string id, GpuConfig cfg,
        std::function<KernelStats(Gpu &)> gpu_body,
        std::string cache_salt = std::string())
    {
        SweepPoint p;
        p.id = std::move(id);
        p.cfg = cfg;
        p.gpuBody = std::move(gpu_body);
        p.cacheSalt = std::move(cache_salt);
        points.push_back(std::move(p));
        return points.size() - 1;
    }
};

/**
 * Runs @p sweep on a SweepRunner(opts.jobs) pool, writes the JSON
 * artifact when opts.jsonPath is set, and returns the per-point results
 * in declaration order. A failed point (e.g. a deadlock-watchdog
 * SimError) is reported on stderr and aborts the bench with exit(1) —
 * after the artifact is written, so partial results are preserved.
 */
inline std::vector<SweepResult>
runSweep(const BenchOptions &opts, const Sweep &sweep)
{
    harness::SweepRunner runner(opts.jobs);
    // Per-point overrides (--trace file fan-out, --no-skip) operate on
    // a copy; the artifact then records the configs that actually ran.
    std::vector<SweepPoint> points = sweep.points;
    for (SweepPoint &p : points) {
        if (opts.noSkip)
            p.cfg.idleSkip = false;
        if (opts.devices != 0)
            p.cfg.numDevices = opts.devices;
        if (!opts.tracePath.empty()) {
            p.tracePath = tracePathFor(opts.tracePath, p.id);
            p.traceFilter = opts.traceFilter;
        }
        if (!opts.syncReportPath.empty())
            p.syncReportPath = tracePathFor(opts.syncReportPath, p.id);
        if (opts.metricsInterval != 0)
            p.cfg.metricsInterval = opts.metricsInterval;
        if (!opts.metricsPath.empty()) {
            p.metricsPath = tracePathFor(opts.metricsPath, p.id);
            if (p.cfg.metricsInterval == 0)
                p.cfg.metricsInterval = 1000;
        }
        if (opts.profile) {
            p.cfg.collectStallBreakdown = true;
            // The profile report's "hot sync objects" section needs the
            // profiler attached even without a --sync-report.
            p.syncProfile = true;
        }
        if (opts.hasExecMode)
            p.cfg.execMode = opts.execMode;
    }
    // Result cache & resume (docs/BENCH.md): the runner serves
    // fingerprint hits and journal replays without dispatching to a
    // worker. Both objects must outlive runner.run().
    std::unique_ptr<harness::ResultCache> cache;
    std::unique_ptr<harness::ResumeJournal> journal;
    if (opts.cacheMode != harness::CacheMode::Off) {
        cache = std::make_unique<harness::ResultCache>(opts.cacheDir,
                                                       opts.cacheMode);
        journal = std::make_unique<harness::ResumeJournal>(
            cache->journalPath(sweep.name), opts.resume,
            opts.cacheMode == harness::CacheMode::ReadWrite);
        runner.setCache(cache.get());
        runner.setJournal(journal.get());
    }
    metrics::ProgressMeter meter;
    if (opts.progress) {
        meter.start(sweep.name, points.size());
        if (cache)
            meter.enableCacheDisplay();
        runner.setPointCallback(
            [&meter](std::size_t, const SweepResult &r) {
                meter.pointDone(r.stats.cycles,
                                r.source !=
                                    SweepResult::Source::Simulated);
            });
    }
    std::vector<SweepResult> results = runner.run(points);
    if (opts.progress)
        meter.finish();
    if (!opts.jsonPath.empty()) {
        std::ofstream out(opts.jsonPath);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.jsonPath.c_str());
            std::exit(1);
        }
        out << harness::sweepToJson(sweep.name, runner.jobs(), points,
                                    results, cache.get())
                   .dump()
            << "\n";
    }
    bool failed = false;
    for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok) {
            std::fprintf(stderr, "error: sweep point '%s' failed: %s\n",
                         sweep.points[i].id.c_str(),
                         results[i].error.c_str());
            failed = true;
        }
    }
    if (failed)
        std::exit(1);
    if (opts.profile) {
        for (size_t i = 0; i < results.size(); ++i) {
            std::printf("\n[%s]\n%s", points[i].id.c_str(),
                        metrics::profileReport(results[i].stats).c_str());
            if (!results[i].syncProfileText.empty())
                std::printf("%s", results[i].syncProfileText.c_str());
        }
        std::printf("\n");
    }
    return results;
}

/** Runs one named benchmark on @p cfg and returns its statistics. */
inline KernelStats
runBenchmark(const GpuConfig &cfg, const std::string &name, double scale)
{
    Gpu gpu(cfg);
    auto harness = makeBenchmark(name, scale);
    return harness->run(gpu);
}

inline void
printHeader(const char *title)
{
    std::printf("# %s\n", title);
}

}  // namespace bowsim::bench

#endif  // BOWSIM_BENCH_BENCH_COMMON_HPP
