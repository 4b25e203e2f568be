/**
 * perfbench: the repository benchmark (README.md in this directory).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--revision TEXT] [--spans-out FILE]
 *
 * After a one-second warm-up, runs whole sweeps of one workload, one
 * after another, for S seconds (a traced run spends the first half
 * untraced and the second half traced), checks every result, prints a
 * human-readable report, and ends with one JSON line: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 */
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "summary.hpp"
#include "workloads.hpp"

extern char **environ;

using namespace perfbench;

namespace {

/** fig09 reference: the paper's Fermi BOWS speedups over LRR, GTO and
 *  CAWA are 2.2x, 1.4x and 1.5x; their geometric mean is 1.67x. */
constexpr double kPaperBowsSpeedups[3] = {2.2, 1.4, 1.5};

struct Args {
    Workload workload = Workload::FermiSyncSuite;
    std::uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false;
    std::string revision = "unknown";
    std::string spansOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload "
                 "fermi_sync_suite|functional_suite|litmus_matrix "
                 "--seed N --seconds S --trace 0|1 "
                 "[--revision TEXT] [--spans-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!parseWorkload(value, &a.workload))
                usage(("unknown workload '" + value + "'").c_str());
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--revision") {
            a.revision = value;
        } else if (flag == "--spans-out") {
            a.spansOut = value;
        } else {
            usage(("unknown argument '" + flag + "'").c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/** Drops every BOWSIM_* variable: the benchmark fixes its own knobs and
 *  must not inherit a caller's (resolveJobs reads BOWSIM_JOBS). */
std::vector<std::string>
scrubBowsimEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "BOWSIM_", 7) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
        }
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    return names;
}

/** CPU brand string from cpuid (x86), so no file outside the checkout
 *  is read; "unknown" elsewhere. */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model.empty() ? "unknown" : model;
#else
    return "unknown";
#endif
}

/** The sanitizer the benchmark was compiled with, as the compiler
 *  reports it; "OFF" when none. */
const char *
sanitizerSetting()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "OFF";
#endif
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** One measured run of sweeps, reduced to what the metrics need. */
struct Loop {
    bool traced = false;
    LoopOutcome outcome;
    std::vector<SweepSummary> sweeps;
    /** Span self seconds by name over the whole loop (traced only). */
    std::map<std::string, double> selfSeconds;

    /** @p total spread over the loop's sweeps. */
    double perSweep(double total) const
    {
        return ratio(total, static_cast<double>(sweeps.size()));
    }
    /** Median over sweeps of @p field. */
    double medianOf(double SweepSummary::*field) const
    {
        std::vector<double> v;
        for (const SweepSummary &s : sweeps)
            v.push_back(s.*field);
        return median(std::move(v));
    }
    double wallS() const { return medianOf(&SweepSummary::wallSeconds); }
};

Loop
measure(const Args &args, unsigned jobs, bool traced, SpanLog &log,
        std::vector<SpanRecord> &all_spans, Clock::time_point deadline)
{
    Loop loop;
    loop.traced = traced;
    loop.outcome = runWorkload(
        args.workload, args.seed, traced,
        [&loop](SweepOutcome &&s) { loop.sweeps.push_back(summarize(s)); },
        jobs, traced ? &log : nullptr, deadline);
    if (traced) {
        std::vector<SpanRecord> spans = log.take();
        loop.selfSeconds = selfSecondsByName(spans);
        all_spans.insert(all_spans.end(),
                         std::make_move_iterator(spans.begin()),
                         std::make_move_iterator(spans.end()));
    }
    std::fprintf(stderr, "%s loop: %zu sweeps in %.3f s\n",
                 traced ? "traced" : "untraced", loop.sweeps.size(),
                 loop.outcome.wallSeconds);
    return loop;
}

/**
 * The end-to-end metrics, from the untraced loop. Only the ones in
 * kBounded go into the record of an untraced run; the rest are printed.
 * point_s_p50 moves between runs for reasons other than the program
 * (fermi's point latencies have a gap at the median), so it is reported
 * unbounded with the per-layer metrics.
 */
std::vector<Metric>
endToEndMetrics(const Loop &loop)
{
    std::vector<double> points;
    unsigned failed = 0;
    for (const SweepSummary &s : loop.sweeps) {
        points.insert(points.end(), s.pointSeconds.begin(),
                      s.pointSeconds.end());
        failed += s.failed;
    }
    // Simulated counters repeat exactly; any sweep will do.
    const SweepSummary &first = loop.sweeps.front();
    const double wall_s = loop.wallS();
    return {
        {"wall_s", "s", wall_s},
        {"cpu_s", "s", loop.medianOf(&SweepSummary::cpuSeconds)},
        {"warp_insts_per_s", "1/s",
         ratio(static_cast<double>(first.counters.warpInsts), wall_s)},
        {"sim_cycles_per_s", "1/s",
         ratio(static_cast<double>(first.counters.cycles), wall_s)},
        {"point_s_p50", "s", percentile(points, 50.0)},
        {"point_s_p75", "s", percentile(points, 75.0)},
        {"setup_s", "s", loop.medianOf(&SweepSummary::setupSeconds)},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"failed_share", "ratio",
         ratio(failed, static_cast<double>(points.size()))},
        {"bows_speedup_gmean", "x", first.bowsSpeedup},
    };
}

const std::vector<std::string> kBounded = {
    "wall_s", "cpu_s", "warp_insts_per_s", "point_s_p75", "setup_s",
    "peak_rss_mb"};

const Metric &
find(const std::vector<Metric> &metrics, const std::string &name)
{
    return *std::find_if(metrics.begin(), metrics.end(),
                         [&name](const Metric &m) { return m.name == name; });
}

std::vector<Metric>
perLayerMetrics(const Loop &untraced, const Loop &traced)
{
    // Host times: span self time per sweep of the traced loop.
    auto self = [&traced](const char *span) {
        auto it = traced.selfSeconds.find(span);
        return traced.perSweep(it == traced.selfSeconds.end() ? 0.0
                                                              : it->second);
    };
    // Simulated counters repeat exactly; any sweep will do.
    const LayerCounters &c = traced.sweeps.front().counters;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    // Litmus cells launch inside runLitmusCell, so their launch time is
    // the harness.cell span.
    const double launch_s = self("sim.launch") + self("harness.cell");
    const std::uint64_t acquires = c.outcomes.lockSuccess +
                                   c.outcomes.interWarpFail +
                                   c.outcomes.intraWarpFail;

    std::vector<Metric> m = {
        {"kernels.build_s", "s", self("kernels.build")},
        {"kernels.setup_s", "s", self("kernels.setup")},
        {"kernels.validate_s", "s", self("kernels.validate")},
        {"sim.init_s", "s", self("sim.init")},
        {"sim.launch_s", "s", self("sim.launch")},
        {"sim.launches", "count", d(c.launches)},
        {"sim.warp_insts", "count", d(c.warpInsts)},
        {"sim.sm_cycles", "count", d(c.smCycles)},
        {"sim.ns_per_warp_inst", "ns", ratio(launch_s * 1e9, d(c.warpInsts))},
        {"sim.ns_per_sm_cycle", "ns", ratio(launch_s * 1e9, d(c.smCycles))},
    };
    for (unsigned k = 0; k < bowsim::trace::kNumStallCauses; ++k) {
        m.push_back({std::string("sched.stall.") +
                         bowsim::trace::toString(
                             static_cast<bowsim::trace::StallCause>(k)),
                     "ratio", ratio(d(c.stall[k]), d(c.stallResident))});
    }
    const std::vector<Metric> rest = {
        {"sched.issue_rate", "inst/cycle",
         ratio(d(c.warpInsts), d(c.smCycles))},
        {"mem.l1_accesses", "count", d(c.l1Accesses)},
        {"mem.l1_hit_rate", "ratio", ratio(d(c.l1Hits), d(c.l1Accesses))},
        {"mem.l2_accesses", "count", d(c.l2Accesses)},
        {"mem.l2_hit_rate", "ratio", ratio(d(c.l2Hits), d(c.l2Accesses))},
        {"mem.dram_accesses", "count", d(c.dramAccesses)},
        {"mem.dram_row_activations", "count", d(c.dramRowActivations)},
        {"mem.atomics", "count", d(c.atomics)},
        {"mem.atomic_wait_cycles", "cycles", d(c.atomicWaitCycles)},
        {"mem.icnt_packets", "count", d(c.icntPackets)},
        {"mem.link_packets", "count", d(c.linkPackets)},
        {"sync.lock_success", "count", d(c.outcomes.lockSuccess)},
        {"sync.inter_warp_fail", "count", d(c.outcomes.interWarpFail)},
        {"sync.intra_warp_fail", "count", d(c.outcomes.intraWarpFail)},
        {"sync.wait_exit_fail", "count", d(c.outcomes.waitExitFail)},
        {"sync.acquire_success_ratio", "ratio",
         ratio(d(c.outcomes.lockSuccess), d(acquires))},
        {"bows.backed_off_share", "ratio",
         ratio(d(c.backedOffWarpCycles), d(c.residentWarpCycles))},
        {"bows.avg_delay_limit", "cycles",
         ratio(d(c.delayLimitCycleSum), d(c.smCycles))},
        {"ddos.sib_share", "ratio", ratio(d(c.sibInsts), d(c.warpInsts))},
        {"energy.dynamic_nj", "nJ", c.energyNj},
        {"harness.cells_s", "s", self("harness.cells")},
        {"harness.cell_s", "s", self("harness.cell")},
        {"harness.serialize_s", "s", self("harness.serialize")},
        {"harness.sweep_self_s", "s", self("sweep")},
        {"litmus.completed", "count", d(c.litmus[0])},
        {"litmus.livelocked", "count", d(c.litmus[1])},
        {"litmus.deadlocked", "count", d(c.litmus[2])},
        {"litmus.watchdog_killed", "count", d(c.litmus[3])},
        {"trace.overhead_s", "s",
         traced.wallS() - untraced.wallS()},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    const std::vector<Metric> e2e = endToEndMetrics(untraced);
    for (const char *name :
         {"sim_cycles_per_s", "bows_speedup_gmean", "point_s_p50"})
        m.push_back(find(e2e, name));
    return m;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return buf;
}

Clock::time_point
after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/** Keeps @p jobs threads busy for @p seconds. Idle host cores take up to
 *  a second to come up to speed, which would otherwise land on the first
 *  sweep. It spins without touching the simulator, so the process's
 *  peak RSS stays the measured workload's own. */
void
warmUp(unsigned jobs, double seconds)
{
    const Clock::time_point until = after(seconds);
    auto spin = [until] {
        volatile std::uint64_t x = 0;
        while (Clock::now() < until) {
            for (int i = 0; i < 4096; ++i)
                x = x + 1;
        }
    };
    std::vector<std::jthread> threads;
    for (unsigned w = 1; w < jobs; ++w)
        threads.emplace_back(spin);
    spin();
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<std::string> ignored = scrubBowsimEnvironment();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = std::min(4u, nproc);
    const std::string sanitize = sanitizerSetting();
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const bool comparable =
        sanitize == "OFF" &&
        (build_type == "RelWithDebInfo" || build_type == "Release");

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "jobs=%u\n",
                toString(args.workload),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, jobs);
    std::printf("# host: nproc=%u cpu=\"%s\" build=%s sanitize=%s "
                "revision=%s%s\n",
                nproc, cpuModel().c_str(), build_type.c_str(),
                sanitize.c_str(), args.revision.c_str(),
                comparable ? "" : "  ** NOT COMPARABLE: sanitizer or "
                                  "unoptimized build **");
    std::printf("# load: one sweep at a time, a closed loop of %u workers "
                "each taking the next point in declaration order; "
                "sm_threads=1, result cache off, idle-skip at its default; "
                "modelled caches start empty at every launch "
                "(Gpu::launch)\n",
                jobs);
    std::printf("# seeds: per-kernel seeds derived from --seed; unseeded:");
    for (const std::string &k : unseededKernels())
        std::printf(" %s;", k.c_str());
    std::printf("\n");
    for (const std::string &n : ignored)
        std::printf("# ignored environment variable %s\n", n.c_str());

    warmUp(jobs, 1.0);
    std::printf("# warm-up: %u threads spun for 1 s, not measured\n", jobs);

    // A traced run spends half its time untraced, for the overhead.
    SpanLog log;
    std::vector<SpanRecord> all_spans;
    std::vector<Loop> loops;
    loops.push_back(measure(args, jobs, false, log, all_spans,
                            after(args.trace ? args.seconds / 2
                                             : args.seconds)));
    if (args.trace) {
        loops.push_back(measure(args, jobs, true, log, all_spans,
                                after(args.seconds / 2)));
    }

    for (const Loop &loop : loops) {
        if (loop.sweeps.empty()) {
            std::fprintf(stderr, "error: %s\n", loop.outcome.error.c_str());
            return 1;
        }
    }
    unsigned attempted = 0;
    unsigned failed = 0;
    bool same_digest = true;
    std::string errors;
    const SweepSummary &first = loops.front().sweeps.front();
    for (const Loop &loop : loops) {
        if (!loop.outcome.error.empty())
            errors += loop.outcome.error + "\n";
        for (const SweepSummary &s : loop.sweeps) {
            attempted += static_cast<unsigned>(s.pointSeconds.size());
            failed += s.failed;
            same_digest = same_digest && s.resultSha256 == first.resultSha256;
            if (!s.firstError.empty() && errors.find(s.firstError) ==
                                             std::string::npos)
                errors += "failure: " + s.firstError + "\n";
        }
    }
    const bool correct = failed == 0 && same_digest && errors.empty();
    const std::size_t points_per_sweep = first.pointSeconds.size();

    std::printf("sweeps=%zu%s points_per_sweep=%zu attempted=%u failed=%u "
                "failed_share=%s\n",
                loops.front().sweeps.size(),
                args.trace ? (" untraced + " +
                              std::to_string(loops.back().sweeps.size()) +
                              " traced")
                                 .c_str()
                           : "",
                points_per_sweep, attempted, failed,
                number(ratio(failed, attempted)).c_str());
    std::printf("%s", errors.c_str());
    std::printf("result_sha256=%s (%s across all sweeps%s)\n",
                first.resultSha256.c_str(),
                same_digest ? "identical" : "DIFFERS",
                args.trace ? ", traced and untraced" : "");
    std::printf("tail percentile: p75 leaves %zu of %zu points per sweep "
                "beyond it\n",
                samplesBeyond(points_per_sweep, 75.0), points_per_sweep);
    for (const Loop &loop : loops) {
        std::printf("%s sweeps, wall s:", loop.traced ? "traced" : "untraced");
        for (const SweepSummary &s : loop.sweeps)
            std::printf(" %.3f", s.wallSeconds);
        std::printf("\n");
    }
    const std::vector<Metric> e2e = endToEndMetrics(loops.front());
    std::printf("end-to-end, untraced loop:\n");
    for (const Metric &m : e2e)
        std::printf("  %-26s %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    if (first.bowsSpeedup > 0.0) {
        const double ref = std::cbrt(kPaperBowsSpeedups[0] *
                                     kPaperBowsSpeedups[1] *
                                     kPaperBowsSpeedups[2]);
        std::printf("bows_speedup_gmean = %.4f x  (paper Fermi reference "
                    "%.2f x = gmean of 2.2/1.4/1.5; error %+.1f%%; the "
                    "model is shape-validated only)\n",
                    first.bowsSpeedup, ref,
                    100.0 * (first.bowsSpeedup - ref) / ref);
    }

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = perLayerMetrics(loops.front(), loops.back());
        std::printf("per layer, traced loop:\n");
        for (const Metric &m : metrics)
            std::printf("  %-26s %s %s\n", m.name.c_str(),
                        number(m.value).c_str(), m.unit.c_str());
    } else {
        for (const std::string &name : kBounded)
            metrics.push_back(find(e2e, name));
    }

    if (!args.spansOut.empty() && !writeSpans(args.spansOut, all_spans)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.spansOut.c_str());
        return 1;
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
