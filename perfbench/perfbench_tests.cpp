/**
 * The benchmark's own tests: the tail-percentile rule, span self time,
 * seed -> digest determinism, and failure accounting.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_tests
 *   .bench_build/perfbench/perfbench_tests
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "spans.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/registry.hpp"
#include "src/sim/gpu.hpp"
#include "summary.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace bowsim;

TEST(Percentiles, NearestRankAndMedian)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50.0), 2.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 75.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentiles, TailRuleLeavesTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(40, 75.0), 10u);
    EXPECT_EQ(samplesBeyond(40, 90.0), 4u);
    EXPECT_EQ(highestTailPercentile(40), 75.0);
    EXPECT_EQ(highestTailPercentile(48), 75.0);
    EXPECT_EQ(highestTailPercentile(288), 95.0);
    EXPECT_EQ(highestTailPercentile(20), 50.0);
    EXPECT_EQ(highestTailPercentile(19), 0.0);
    EXPECT_EQ(highestTailPercentile(1000), 99.0);
}

TEST(Percentiles, P75IsTheRuleOnEveryWorkload)
{
    double lowest = 100.0;
    for (Workload w : allWorkloads()) {
        const std::size_t n = planSweep(w, 1, false).points.size();
        lowest = std::min(lowest, highestTailPercentile(n));
    }
    EXPECT_EQ(lowest, 75.0);
}

namespace {

SpanRecord
rec(const char *name, std::int64_t id, std::int64_t parent,
    std::int64_t start, std::int64_t end)
{
    SpanRecord r;
    r.name = name;
    r.id = id;
    r.parent = parent;
    r.startNs = start;
    r.endNs = end;
    return r;
}

}  // namespace

TEST(Spans, SelfTimeSubtractsMergedChildCoverage)
{
    // Two children overlap (concurrent workers), one grandchild nests in
    // the first, and one child runs past its parent's end.
    const std::vector<SpanRecord> spans = {
        rec("sweep", 0, -1, 0, 100),     rec("point", 1, 0, 10, 40),
        rec("point", 2, 0, 30, 60),      rec("sim.launch", 3, 1, 15, 20),
        rec("harness.serialize", 4, 0, 90, 130),
    };
    const std::vector<double> self = selfSeconds(spans);
    EXPECT_NEAR(self[0], 40e-9, 1e-15);  // 100 - [10,60) - [90,100)
    EXPECT_NEAR(self[1], 25e-9, 1e-15);
    EXPECT_NEAR(self[2], 30e-9, 1e-15);
    EXPECT_NEAR(self[3], 5e-9, 1e-15);
    EXPECT_NEAR(self[4], 40e-9, 1e-15);
    const auto by_name = selfSecondsByName(spans);
    EXPECT_NEAR(by_name.at("point"), 55e-9, 1e-15);
}

TEST(Spans, UntracedSpanStillTimesItself)
{
    Span s(nullptr, "x");
    EXPECT_EQ(s.id(), -1);
    EXPECT_GE(s.finish(), 0.0);
    SpanLog log;
    {
        Span parent(&log, "parent");
        Span child(&log, "child", parent.id(), 7, 3);
    }
    const std::vector<SpanRecord> spans = log.take();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "child");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[0].point, 7);
    EXPECT_EQ(spans[0].thread, 3u);
    EXPECT_TRUE(log.take().empty());
}

TEST(Seeds, DefaultSeedsReproduceTheRegistry)
{
    std::vector<std::string> names = syncKernelNames();
    names.insert(names.end(), syncFreeKernelNames().begin(),
                 syncFreeKernelNames().end());
    GpuConfig cfg = makeGtx480Config();
    cfg.execMode = ExecMode::Functional;
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        Gpu a(cfg);
        Gpu b(cfg);
        const KernelStats sa = makeSeededKernel(name, std::nullopt)->run(a);
        const KernelStats sb = makeBenchmark(name)->run(b);
        EXPECT_EQ(a.mem().digest(), b.mem().digest());
        EXPECT_EQ(harness::statsToJson(sa).dump(),
                  harness::statsToJson(sb).dump());
        const bool unseeded = std::find(unseededKernels().begin(),
                                        unseededKernels().end(),
                                        name) != unseededKernels().end();
        if (!unseeded) {
            Gpu c(cfg);
            makeSeededKernel(name, deriveSeed(2, name))->run(c);
            EXPECT_NE(a.mem().digest(), c.mem().digest());
        }
    }
}

namespace {

/** Sweeps of one closed loop that starts a single sweep. */
std::vector<SweepOutcome>
oneSweep(const SweepPlanner &planner, unsigned jobs, SpanLog *log = nullptr)
{
    std::vector<SweepOutcome> out;
    const LoopOutcome loop = runLoop(
        planner, [&out](SweepOutcome &&s) { out.push_back(std::move(s)); },
        jobs, log, Clock::now());
    EXPECT_EQ(loop.sweeps, 1u);
    EXPECT_TRUE(loop.error.empty()) << loop.error;
    return out;
}

SweepPlanner
planner(Workload w, std::uint64_t seed, bool traced)
{
    return [=](SpanLog *log, std::int64_t parent) {
        return planSweep(w, seed, traced, log, parent);
    };
}

}  // namespace

TEST(Digest, RepeatsAcrossJobsAndTracingAndFollowsTheSeed)
{
    const auto a = oneSweep(planner(Workload::FunctionalSuite, 1, false), 1);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].failed, 0u);
    EXPECT_EQ(a[0].resultSha256.size(), 64u);
    SpanLog log;
    const auto b =
        oneSweep(planner(Workload::FunctionalSuite, 1, true), 3, &log);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].resultSha256, b[0].resultSha256);
    EXPECT_FALSE(log.take().empty());
    const auto c = oneSweep(planner(Workload::FunctionalSuite, 2, false), 2);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].failed, 0u);
    EXPECT_NE(a[0].resultSha256, c[0].resultSha256);
}

TEST(Loop, RunsWholeSweepsOneAtATimeUntilTheDeadline)
{
    std::vector<std::string> digests;
    SpanLog log;
    const LoopOutcome loop = runLoop(
        [](SpanLog *, std::int64_t) {
            SweepPlan plan;
            plan.name = "vec";
            GpuConfig cfg = makeGtx480Config();
            cfg.execMode = ExecMode::Functional;
            for (int i = 0; i < 5; ++i) {
                plan.points.push_back(
                    {"VEC/" + std::to_string(i), cfg,
                     [] { return makeBenchmark("VEC", 0.02); }, -1});
            }
            return plan;
        },
        [&digests](SweepOutcome &&s) {
            EXPECT_EQ(s.points.size(), 5u);
            EXPECT_GT(s.wallSeconds, 0.0);
            digests.push_back(s.resultSha256);
        },
        3, &log, Clock::now() + std::chrono::milliseconds(200));
    EXPECT_GE(loop.sweeps, 2u);
    ASSERT_EQ(digests.size(), loop.sweeps);
    for (const std::string &d : digests)
        EXPECT_EQ(d, digests.front());
    EXPECT_GE(loop.wallSeconds, 0.2);

    // A sweep drains before the next starts: sweep spans never overlap,
    // and every point lies inside its own sweep.
    std::vector<SpanRecord> spans = log.take();
    std::map<std::int64_t, SpanRecord> sweeps;
    for (const SpanRecord &r : spans) {
        if (r.name == "sweep")
            sweeps[r.id] = r;
    }
    ASSERT_EQ(sweeps.size(), loop.sweeps);
    std::int64_t last_end = -1;
    for (const auto &[id, sweep] : sweeps) {
        EXPECT_GE(sweep.startNs, last_end);
        last_end = sweep.endNs;
    }
    for (const SpanRecord &r : spans) {
        if (r.name != "point")
            continue;
        const SpanRecord &sweep = sweeps.at(r.parent);
        EXPECT_GE(r.startNs, sweep.startNs);
        EXPECT_LE(r.endNs, sweep.endNs);
    }
}

namespace {

/** A correct kernel whose check always fails. */
class FailingValidation : public KernelHarness {
  public:
    explicit FailingValidation(std::unique_ptr<KernelHarness> inner)
        : KernelHarness(inner->name()), inner_(std::move(inner))
    {
    }
    void setup(Gpu &gpu) override { inner_->setup(gpu); }
    std::vector<LaunchSpec> launches() const override
    {
        return inner_->launches();
    }
    bool validate(Gpu &) const override { return false; }
    std::vector<const Program *> programs() const override
    {
        return inner_->programs();
    }

  private:
    std::unique_ptr<KernelHarness> inner_;
};

}  // namespace

TEST(Failures, AreCountedWithoutStoppingTheSweep)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.execMode = ExecMode::Functional;
    SweepPlan plan;
    plan.name = "failures";
    auto vec = [] { return makeBenchmark("VEC", 0.05); };
    plan.points.push_back({"ok", cfg, vec, -1});
    plan.points.push_back({"invalid", cfg,
                           [vec] {
                               return std::unique_ptr<KernelHarness>(
                                   new FailingValidation(vec()));
                           },
                           -1});
    plan.points.push_back({"throws", cfg,
                           []() -> std::unique_ptr<KernelHarness> {
                               return makeBenchmark("no-such-kernel");
                           },
                           -1});
    const auto sweeps = oneSweep(
        [&plan](SpanLog *, std::int64_t) { return plan; }, 2);
    ASSERT_EQ(sweeps.size(), 1u);
    const SweepOutcome &out = sweeps[0];
    ASSERT_EQ(out.points.size(), 3u);
    EXPECT_EQ(out.failed, 2u);
    EXPECT_TRUE(out.points[0].ok);
    EXPECT_FALSE(out.points[1].ok);
    EXPECT_NE(out.points[1].error.find("failed validation"),
              std::string::npos);
    EXPECT_FALSE(out.points[2].ok);
    const SweepSummary s = summarize(out);
    EXPECT_EQ(s.failed, 2u);
    EXPECT_EQ(s.pointSeconds.size(), 3u);
    EXPECT_NE(s.firstError.find("invalid"), std::string::npos);
}
