#ifndef BOWSIM_BENCH_BENCH_COMMON_HPP
#define BOWSIM_BENCH_BENCH_COMMON_HPP

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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
 * runSweep(), which runs the points on a worker pool (--jobs=N) and
 * optionally writes a machine-readable artifact
 * (--json=FILE). Results come back in declaration order, so the printed
 * tables are byte-identical regardless of the worker count.
 */

namespace bowsim::bench {

using harness::SweepPoint;
using harness::SweepResult;

/** Command-line options shared by every bench binary (see docs/BENCH.md). */
struct BenchOptions {
    /** Workload scale factor (--scale). */
    double scale = 1.0;
    /** Simulated core count override; 0 leaves each config untouched
     *  (--cores). */
    unsigned cores = 0;
    /**
     * Simulated device (GPU) count override; 0 leaves each config
     * untouched (--devices). Values above 1 shard the launch across
     * that many devices joined by the modeled inter-device link
     * (docs/PERF.md, "Device sharding"). Recorded per point as
     * config.num_devices when it differs from 1.
     */
    unsigned devices = 0;
    /** Sweep worker threads; 0 means the hardware concurrency (--jobs). */
    unsigned jobs = 0;
    /** When set, runSweep() writes the sweep artifact here (--json). */
    std::string jsonPath;
    /**
     * When set, every point records a Chrome trace to a per-point file
     * derived from this base path (--trace): "out.json" becomes
     * "out.HT_B500.json" for point "HT/B500". Per-point files keep
     * tracing safe under --jobs > 1.
     */
    std::string tracePath;
    /**
     * Trace category filter (--trace-filter): comma-separated category
     * tokens (pipe, mem, ddos, bows, barrier, or the alias sync =
     * ddos|bows|barrier; docs/TRACING.md) applied to every point's
     * trace recorder. Only meaningful with --trace.
     */
    std::string traceFilter;
    /**
     * Escape hatch for the idle-cycle fast-forward (--no-skip): forces
     * GpuConfig::idleSkip off on every point. Results are bit-identical
     * either way (that is tested); the flag exists for wall-clock
     * comparisons and for ruling the skip logic out when debugging.
     * Not recorded: the JSON artifact is byte-identical either way.
     */
    bool noSkip = false;
    /**
     * When set, every point records a metrics time series to a
     * per-point file derived from this base path (--metrics), named
     * like --trace fan-out. A ".csv" suffix selects CSV output,
     * anything else JSON (docs/METRICS.md).
     */
    std::string metricsPath;
    /**
     * When set, every point runs with the sync-contention profiler
     * attached and writes its JSON report to a per-point file derived
     * from this base path (--sync-report), named like --trace fan-out
     * and validated by `json_check --sync-report` (docs/SYNC.md).
     */
    std::string syncReportPath;
    /**
     * Sample spacing in simulated cycles for --metrics
     * (--metrics-interval); 0 means 1000. Recorded in each series as
     * its "interval", not in the sweep artifact.
     */
    Cycle metricsInterval = 0;
    /**
     * Per-kernel profile reports (--profile): turns on
     * GpuConfig::collectStallBreakdown for every point and prints
     * metrics::profileReport after the sweep — per-scheduler-unit issue
     * distribution, peak-vs-mean occupancy, ranked stall causes, and
     * the top warps by back-off residency.
     */
    bool profile = false;
    /**
     * Sweep heartbeat (--progress): one stderr status line rewritten
     * after every finished point with done/total counts, aggregate
     * sim-cycles/s, and an ETA. stdout is untouched.
     */
    bool progress = false;
    /**
     * Execution mode override (--exec-mode=cycle|functional): forces
     * GpuConfig::execMode on every point. hasExecMode distinguishes
     * "not given" from an explicit cycle. Recorded per point as
     * config.exec_mode (docs/PERF.md, "Execution modes").
     */
    bool hasExecMode = false;
    ExecMode execMode = ExecMode::Cycle;
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
 * Reads @p text, the value of @p flag, as a whole decimal number in
 * [@p min, @p max]. Anything else (a sign, a fraction, trailing text,
 * an empty value, a number out of range) is a usage error: exit 2 with
 * a message naming the flag.
 */
inline std::uint64_t
parseWhole(const char *flag, const char *text, std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<unsigned>::max())
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || v < min || v > max) {
        std::fprintf(stderr,
                     "error: %s needs a whole number from %llu to %llu, "
                     "got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text);
        std::exit(2);
    }
    return v;
}

/** Reads @p text as the value of --scale: a positive finite number, or
 *  a usage error (exit 2). */
inline double
parseScale(const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
        std::fprintf(stderr,
                     "error: --scale needs a positive finite number, got "
                     "'%s'\n",
                     text);
        std::exit(2);
    }
    return v;
}

/**
 * Parses --scale= / --cores= / --devices= / --jobs= / --json= /
 * --trace= / --trace-filter= / --no-skip / --metrics= /
 * --metrics-interval= / --sync-report= / --profile /
 * --progress / --exec-mode=. A numeric value that does not parse, and
 * any argument not in that list, is a usage error (exit 2) naming the
 * argument, so a misspelt or retired flag never runs silently with the
 * defaults. A binary with flags of its own hands only the rest to this
 * parser.
 */
inline BenchOptions
parseOptions(int argc, char **argv, double default_scale = 1.0,
             unsigned default_cores = 0)
{
    BenchOptions o;
    o.scale = default_scale;
    o.cores = default_cores;
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
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--scale=", 8) == 0)
            o.scale = parseScale(argv[i] + 8);
        else if (std::strncmp(argv[i], "--cores=", 8) == 0)
            o.cores = static_cast<unsigned>(
                parseWhole("--cores", argv[i] + 8));
        else if (std::strncmp(argv[i], "--devices=", 10) == 0)
            o.devices = static_cast<unsigned>(
                parseWhole("--devices", argv[i] + 10));
        else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
            o.jobs = static_cast<unsigned>(
                parseWhole("--jobs", argv[i] + 7));
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
            o.metricsInterval = parseWhole("--metrics-interval", argv[i] + 19,
                                           0, kNeverCycle);
        else if (std::strncmp(argv[i], "--metrics=", 10) == 0)
            o.metricsPath = argv[i] + 10;
        else if (std::strcmp(argv[i], "--profile") == 0)
            o.profile = true;
        else if (std::strcmp(argv[i], "--progress") == 0)
            o.progress = true;
        else if (std::strncmp(argv[i], "--exec-mode=", 12) == 0)
            setExecMode(argv[i] + 12);
        else {
            std::fprintf(stderr,
                         "error: unknown argument '%s' (docs/BENCH.md "
                         "lists the bench flags)\n",
                         argv[i]);
            std::exit(2);
        }
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

    /**
     * Adds a registry-kernel point, with optional kernel overrides
     * (makeBenchmark validates them); returns its index.
     */
    size_t
    add(std::string id, std::string kernel, GpuConfig cfg, double scale,
        KernelParams params = {})
    {
        SweepPoint p;
        p.id = std::move(id);
        p.kernel = std::move(kernel);
        p.cfg = cfg;
        p.scale = scale;
        p.params = std::move(params);
        points.push_back(std::move(p));
        return points.size() - 1;
    }

    /**
     * Adds a point whose closure needs the Gpu itself (litmus cells,
     * micro_functional). The runner owns Gpu construction, so
     * --trace/--metrics/--no-skip/--profile all apply.
     */
    size_t
    add(std::string id, GpuConfig cfg,
        std::function<KernelStats(Gpu &)> gpu_body)
    {
        SweepPoint p;
        p.id = std::move(id);
        p.cfg = cfg;
        p.gpuBody = std::move(gpu_body);
        points.push_back(std::move(p));
        return points.size() - 1;
    }
};

/** One column of the Figs. 10-13 delay sweep. */
struct DelayMode {
    const char *label;
    bool bows;
    bool adaptive;
    /** Fixed back-off delay limit (BowsConfig::delayLimit). */
    Cycle limit;
};

/** The Figs. 10-13 columns: plain GTO, then GTO+BOWS at each delay
 *  limit and with the adaptive estimator. */
inline const std::vector<DelayMode> &
delayModes()
{
    static const std::vector<DelayMode> modes = {
        {"GTO", false, false, 0},     {"B0", true, false, 0},
        {"B500", true, false, 500},   {"B1000", true, false, 1000},
        {"B3000", true, false, 3000}, {"B5000", true, false, 5000},
        {"Badapt", true, true, 0},
    };
    return modes;
}

/**
 * The Figs. 10-13 sweep: every sync kernel under each delayModes()
 * column on the GTX480 with DDOS spin detection, kernel-major, so the
 * result of kernel k in column m is at k * delayModes().size() + m.
 * Point ids are KERNEL/LABEL.
 */
inline Sweep
delaySweep(std::string name, const BenchOptions &opts)
{
    Sweep sweep;
    sweep.name = std::move(name);
    for (const std::string &kernel : syncKernelNames()) {
        for (const DelayMode &m : delayModes()) {
            GpuConfig cfg = makeGtx480Config();
            applyCores(opts, cfg);
            cfg.scheduler = SchedulerKind::GTO;
            cfg.bows.enabled = m.bows;
            cfg.bows.adaptive = m.adaptive;
            cfg.bows.delayLimit = m.limit;
            sweep.add(kernel + "/" + m.label, kernel, cfg, opts.scale);
        }
    }
    return sweep;
}

/** The paper's three base policies, in column order. */
inline const std::vector<SchedulerKind> &
basePolicies()
{
    static const std::vector<SchedulerKind> policies = {
        SchedulerKind::LRR, SchedulerKind::GTO, SchedulerKind::CAWA};
    return policies;
}

/**
 * The Figs. 2, 9 and 15 sweep: every sync kernel under each base
 * policy with BOWS off and/or on as @p bows_modes lists, on
 * @p preset's configuration, kernel-major. Point ids are KERNEL/POLICY,
 * with "+B" appended when BOWS is on.
 */
inline Sweep
policySweep(std::string name, const BenchOptions &opts,
            GpuConfig (*preset)(), const std::vector<bool> &bows_modes)
{
    Sweep sweep;
    sweep.name = std::move(name);
    for (const std::string &kernel : syncKernelNames()) {
        for (SchedulerKind sched : basePolicies()) {
            for (bool bows : bows_modes) {
                GpuConfig cfg = preset();
                applyCores(opts, cfg);
                cfg.scheduler = sched;
                cfg.bows.enabled = bows;
                sweep.add(kernel + "/" + toString(sched) +
                              (bows ? "+B" : ""),
                          kernel, cfg, opts.scale);
            }
        }
    }
    return sweep;
}

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
        if (!opts.metricsPath.empty()) {
            p.metricsPath = tracePathFor(opts.metricsPath, p.id);
            p.metricsInterval = opts.metricsInterval;
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
    metrics::ProgressMeter meter;
    if (opts.progress) {
        meter.start(sweep.name, points.size());
        runner.setPointCallback(
            [&meter](std::size_t, const SweepResult &r) {
                meter.pointDone(r.stats.cycles);
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
        out << harness::sweepToJson(sweep.name, points, results).dump()
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

inline void
printHeader(const char *title)
{
    std::printf("# %s\n", title);
}

}  // namespace bowsim::bench

#endif  // BOWSIM_BENCH_BENCH_COMMON_HPP
