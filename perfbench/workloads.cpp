#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/harness/fingerprint.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/atm.hpp"
#include "src/kernels/cp_ds.hpp"
#include "src/kernels/hashtable.hpp"
#include "src/kernels/nw.hpp"
#include "src/kernels/registry.hpp"
#include "src/kernels/syncfree.hpp"
#include "src/kernels/tsp.hpp"
#include "src/sim/gpu.hpp"

namespace perfbench {

using namespace bowsim;

const char *
toString(Workload w)
{
    switch (w) {
      case Workload::FermiSyncSuite: return "fermi_sync_suite";
      case Workload::FunctionalSuite: return "functional_suite";
      case Workload::LitmusMatrix: return "litmus_matrix";
    }
    return "?";
}

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {Workload::FermiSyncSuite,
                                              Workload::FunctionalSuite,
                                              Workload::LitmusMatrix};
    return all;
}

bool
parseWorkload(const std::string &text, Workload *out)
{
    for (Workload w : allWorkloads()) {
        if (text == toString(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

std::uint64_t
deriveSeed(std::uint64_t workload_seed, const std::string &instance)
{
    std::uint64_t x = workload_seed;
    for (char c : instance)
        x = (x ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    // splitmix64 finalizer.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::unique_ptr<KernelHarness>
makeSeededKernel(const std::string &name, std::optional<std::uint64_t> seed)
{
    // makeBenchmark()'s scale-1.0 parameters; only the seed differs. The
    // benchmark's tests check that the default seeds reproduce
    // makeBenchmark() byte for byte, so a drift here cannot go unseen.
    if (name == "HT") {
        HashtableParams p;
        p.insertions = 12288;
        p.buckets = 128;
        p.seed = seed.value_or(p.seed);
        return makeHashtable(p);
    }
    if (name == "ATM") {
        AtmParams p;
        p.transactions = 12288;
        p.accounts = 250;
        p.seed = seed.value_or(p.seed);
        return makeAtm(p);
    }
    if (name == "TSP") {
        TspParams p;
        p.climbers = 3000;
        p.rounds = 24;
        p.seed = seed.value_or(p.seed);
        return makeTsp(p);
    }
    if (name == "NW1" || name == "NW2") {
        NwParams p;
        p.n = 160;
        p.seed = seed.value_or(p.seed);
        return makeNw(p, name == "NW2");
    }
    if (name == "DS") {
        CpDsParams p;
        p.side = 48;
        p.seed = seed.value_or(p.seed);
        return makeCpDs(p);
    }
    SyncFreeParams sf;
    sf.elements = 65536;
    sf.seed = seed.value_or(sf.seed);
    if (name == "VEC")
        return makeVecAdd(sf);
    if (name == "KM")
        return makeKmeansInvert(sf);
    if (name == "MS")
        return makeMergeSortPass(sf);
    if (name == "HL")
        return makeHeartWall(sf);
    if (name == "RED")
        return makeReduction(sf);
    if (name == "STEN")
        return makeStencil(sf);
    // TB and ST: no seed in their param structs.
    return makeBenchmark(name);
}

const std::vector<std::string> &
unseededKernels()
{
    // TspParams has a seed field, but the TSP kernel derives its tour
    // costs from the thread id and never reads it.
    static const std::vector<std::string> names = {
        "TB", "ST", "TSP", "litmus primitives"};
    return names;
}

namespace {

Point
kernelPoint(std::string id, GpuConfig cfg,
            std::function<std::unique_ptr<KernelHarness>()> make)
{
    Point p;
    p.id = std::move(id);
    p.cfg = std::move(cfg);
    p.make = std::move(make);
    return p;
}

}  // namespace

SweepPlan
planSweep(Workload w, std::uint64_t seed, bool traced, SpanLog *log,
          std::int64_t parent)
{
    SweepPlan plan;
    plan.name = toString(w);
    switch (w) {
      case Workload::FermiSyncSuite:
        for (const std::string &name : syncKernelNames()) {
            // Base and +BOWS share inputs, so their cycle ratio is the
            // BOWS speedup on the same data.
            const std::uint64_t s = deriveSeed(seed, name);
            for (SchedulerKind sched : {SchedulerKind::LRR,
                                        SchedulerKind::GTO,
                                        SchedulerKind::CAWA}) {
                for (bool bows : {false, true}) {
                    GpuConfig cfg = makeGtx480Config();
                    cfg.scheduler = sched;
                    cfg.bows.enabled = bows;
                    cfg.collectStallBreakdown = traced;
                    plan.points.push_back(kernelPoint(
                        name + "/" + bowsim::toString(sched) + "/" +
                            (bows ? "bows" : "base"),
                        cfg, [name, s] { return makeSeededKernel(name, s); }));
                }
            }
        }
        break;
      case Workload::FunctionalSuite: {
        std::vector<std::string> names = syncKernelNames();
        names.insert(names.end(), syncFreeKernelNames().begin(),
                     syncFreeKernelNames().end());
        for (const std::string label : {"fermi", "pascal"}) {
            GpuConfig cfg = label == "fermi" ? makeGtx480Config()
                                             : makeGtx1080TiConfig();
            cfg.execMode = ExecMode::Functional;
            cfg.collectStallBreakdown = traced;
            for (const std::string &name : names) {
                const std::uint64_t s = deriveSeed(seed, name);
                plan.points.push_back(kernelPoint(
                    name + "/" + label, cfg,
                    [name, s] { return makeSeededKernel(name, s); }));
            }
            // fig01's bucket sweep: the same keys over 128..4096 buckets.
            for (unsigned buckets : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
                HashtableParams p;
                p.insertions = 24576;
                p.buckets = buckets;
                p.ctas = 30;
                p.threadsPerCta = 256;
                p.seed = deriveSeed(seed, "fig01/HT");
                plan.points.push_back(kernelPoint(
                    "HT/" + label + "/" + std::to_string(buckets), cfg,
                    [p] { return makeHashtable(p); }));
            }
        }
        break;
      }
      case Workload::LitmusMatrix: {
        Span span(log, "harness.cells", parent);
        plan.litmus = harness::defaultLitmusOptions();
        plan.cells = harness::buildLitmusCells(plan.litmus);
        plan.cellsSeconds = span.finish();
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            plan.cells[i].cfg.collectStallBreakdown = traced;
            Point p;
            p.id = plan.cells[i].id;
            p.cfg = plan.cells[i].cfg;
            p.cell = static_cast<int>(i);
            plan.points.push_back(std::move(p));
        }
        break;
      }
    }
    return plan;
}

namespace {

/** @p s without the per-warp stall and per-unit issue tables, which only
 *  traced runs collect, so traced and untraced digests agree. */
KernelStats
withoutStallTables(KernelStats s)
{
    s.stallCounts.clear();
    s.stallWarpsPerSm = 0;
    s.unitIssues.clear();
    s.unitsPerSm = 0;
    for (KernelStats &d : s.perDevice)
        d = withoutStallTables(std::move(d));
    return s;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

PointResult
runPoint(const SweepPlan &plan, std::size_t index, SpanLog *log,
         std::int64_t parent, unsigned worker)
{
    const Point &p = plan.points[index];
    const auto pid = static_cast<std::int64_t>(index);
    PointResult r;
    r.id = p.id;
    Span span(log, "point", parent, pid, worker);
    try {
        std::unique_ptr<Gpu> gpu;
        if (p.cell >= 0) {
            r.litmusCell = true;
            {
                Span s(log, "sim.init", span.id(), pid, worker);
                gpu = std::make_unique<Gpu>(p.cfg);
                r.setupSeconds += s.finish();
            }
            {
                // runLitmusCell builds the primitive's harness, launches
                // it and validates it; the launch is not separable.
                Span s(log, "harness.cell", span.id(), pid, worker);
                r.litmus = harness::runLitmusCell(
                    plan.cells[static_cast<std::size_t>(p.cell)], *gpu);
            }
            r.stats = std::move(r.litmus.stats);
            r.launches = 1;
            r.ok = true;
        } else {
            std::unique_ptr<KernelHarness> h;
            {
                Span s(log, "kernels.build", span.id(), pid, worker);
                h = p.make();
                r.setupSeconds += s.finish();
            }
            {
                Span s(log, "sim.init", span.id(), pid, worker);
                gpu = std::make_unique<Gpu>(p.cfg);
                r.setupSeconds += s.finish();
            }
            {
                Span s(log, "kernels.setup", span.id(), pid, worker);
                h->setup(*gpu);
                r.setupSeconds += s.finish();
            }
            // Same accumulation as KernelHarness::run().
            r.stats.kernel = h->name();
            for (const LaunchSpec &spec : h->launches()) {
                Span s(log, "sim.launch", span.id(), pid, worker);
                KernelStats st = gpu->launch(*spec.prog, spec.grid,
                                             spec.block, spec.params);
                if (r.launches++ == 0) {
                    st.kernel = r.stats.kernel;
                    r.stats = std::move(st);
                } else {
                    r.stats += st;
                }
            }
            bool valid = false;
            {
                Span s(log, "kernels.validate", span.id(), pid, worker);
                valid = h->validate(*gpu);
            }
            if (valid)
                r.ok = true;
            else
                r.error = "benchmark '" + h->name() + "' failed validation";
        }
        r.memDigest = gpu->mem().digest();
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    r.seconds = span.finish();
    return r;
}

/** Totals a finished sweep and computes its result digest. */
void
finishSweep(const SweepPlan &plan, SweepOutcome &out, SpanLog *log,
            std::int64_t parent)
{
    Span span(log, "harness.serialize", parent);
    out.setupSeconds = plan.cellsSeconds;
    harness::FingerprintHasher h;
    h.add("sweep", plan.name);
    std::vector<harness::LitmusCellResult> cells;
    for (std::size_t i = 0; i < out.points.size(); ++i) {
        const PointResult &r = out.points[i];
        out.setupSeconds += r.setupSeconds;
        if (!r.ok)
            ++out.failed;
        h.add("id", plan.points[i].id);
        h.add("ok", r.ok);
        h.add("mem", r.memDigest);
        const KernelStats stats = withoutStallTables(r.stats);
        if (plan.points[i].cell >= 0) {
            cells.push_back(r.litmus);
            cells.back().stats = stats;
        } else {
            h.add("stats", harness::statsToJson(stats).dump());
        }
    }
    if (!plan.cells.empty()) {
        h.add("litmus", harness::litmusToJson(plan.name, plan.litmus,
                                              plan.cells, cells)
                            .dump());
    }
    out.resultSha256 = h.hex();
}

}  // namespace

LoopOutcome
runLoop(const SweepPlanner &planner, const SweepSink &sink, unsigned jobs,
        SpanLog *log, Clock::time_point deadline)
{
    LoopOutcome loop;
    const Clock::time_point t0 = Clock::now();
    do {
        const Clock::time_point start = Clock::now();
        const double cpu0 = processCpuSeconds();
        Span span(log, "sweep");
        SweepPlan plan;
        try {
            plan = planner(log, span.id());
        } catch (const std::exception &e) {
            loop.error = std::string("planning a sweep failed: ") + e.what();
            break;
        }
        const std::size_t n = plan.points.size();
        if (n == 0) {
            loop.error = "a sweep has no points";
            break;
        }
        SweepOutcome out;
        out.points.resize(n);
        std::atomic<std::size_t> next{0};
        auto work = [&](unsigned worker) {
            for (std::size_t i = next++; i < n; i = next++)
                out.points[i] = runPoint(plan, i, log, span.id(), worker);
        };
        {
            std::vector<std::jthread> workers;
            for (unsigned w = 1; w < std::max(1u, jobs); ++w)
                workers.emplace_back(work, w);
            work(0);
        }
        finishSweep(plan, out, log, span.id());
        span.finish();
        out.wallSeconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        out.cpuSeconds = processCpuSeconds() - cpu0;
        ++loop.sweeps;
        sink(std::move(out));
    } while (Clock::now() < deadline);
    loop.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return loop;
}

LoopOutcome
runWorkload(Workload w, std::uint64_t seed, bool traced,
            const SweepSink &sink, unsigned jobs, SpanLog *log,
            Clock::time_point deadline)
{
    return runLoop(
        [=](SpanLog *l, std::int64_t parent) {
            return planSweep(w, seed, traced, l, parent);
        },
        sink, jobs, log, deadline);
}

}  // namespace perfbench
