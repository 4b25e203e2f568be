#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "src/common/config.hpp"
#include "src/harness/litmus.hpp"
#include "src/kernels/kernel_harness.hpp"
#include "src/stats/stats.hpp"

/**
 * @file
 * The benchmark's three workloads and the closed-loop sweep that runs
 * them. Everything here drives the simulator through its public API
 * only: the kernel factories and makeBenchmark, GpuSystem and launch,
 * KernelHarness setup/launches/validate, buildLitmusCells and
 * runLitmusCell, and statsToJson/litmusToJson for the result digest.
 */

namespace perfbench {

enum class Workload {
    /** fig09 at full scale: 8 sync kernels x {LRR, GTO, CAWA} x
     *  {base, +BOWS} on GTX480, cycle mode (48 points). */
    FermiSyncSuite,
    /** All 14 registry kernels plus the fig01 hashtable bucket sweep,
     *  functional mode, under the fermi and pascal configs (40 points). */
    FunctionalSuite,
    /** The default 288-cell litmus matrix, cycle mode. */
    LitmusMatrix,
};

const char *toString(Workload w);
bool parseWorkload(const std::string &text, Workload *out);
const std::vector<Workload> &allWorkloads();

/**
 * Seed of one kernel instance: splitmix64 over the workload seed and the
 * instance name, so each kernel gets its own stream and a new workload
 * seed changes every seeded kernel's inputs.
 */
std::uint64_t deriveSeed(std::uint64_t workload_seed,
                         const std::string &instance);

/**
 * Registry kernel @p name at full scale (makeBenchmark's scale-1.0
 * parameters) with its inputs drawn from @p seed through the kernel's
 * public param struct. Without a seed the param struct's default seed is
 * kept, which reproduces makeBenchmark(name) exactly. Kernels listed by
 * unseededKernels() ignore @p seed.
 */
std::unique_ptr<bowsim::KernelHarness>
makeSeededKernel(const std::string &name, std::optional<std::uint64_t> seed);

/** Kernels whose inputs take no seed: BH-TB, BH-ST, TSP and the litmus
 *  primitives (their inputs are fixed by geometry alone). */
const std::vector<std::string> &unseededKernels();

/** One independent simulation of a sweep. */
struct Point {
    std::string id;
    bowsim::GpuConfig cfg;
    /** Builds the kernel harness; empty for litmus cells. */
    std::function<std::unique_ptr<bowsim::KernelHarness>()> make;
    /** Index into SweepPlan::cells for a litmus cell; -1 otherwise. */
    int cell = -1;
};

/** Everything one sweep of a workload runs. */
struct SweepPlan {
    std::string name;
    std::vector<Point> points;
    /** Litmus matrix only. */
    bowsim::harness::LitmusOptions litmus;
    std::vector<bowsim::harness::LitmusCell> cells;
    /** Host seconds spent in buildLitmusCells. */
    double cellsSeconds = 0.0;
};

/**
 * Declares @p w's points for @p seed. @p traced turns on
 * GpuConfig::collectStallBreakdown for every point (the per-layer stall
 * shares); it changes no simulated result. The litmus matrix's
 * buildLitmusCells call is recorded as a span under @p parent.
 */
SweepPlan planSweep(Workload w, std::uint64_t seed, bool traced,
                    SpanLog *log = nullptr, std::int64_t parent = -1);

/** Outcome of one point. */
struct PointResult {
    std::string id;
    bool ok = false;
    std::string error;
    bowsim::KernelStats stats;
    /** MemorySpace::digest() after the point's last launch. */
    std::uint64_t memDigest = 0;
    /** Host seconds from the point's start to its end. */
    double seconds = 0.0;
    /** Host seconds before the first launch: harness build, GpuSystem
     *  construction and setup(). */
    double setupSeconds = 0.0;
    unsigned launches = 0;
    /** Litmus cells only: the classified outcome (its stats moved to
     *  `stats`). */
    bool litmusCell = false;
    bowsim::harness::LitmusCellResult litmus;
};

/** Outcome of one sweep. */
struct SweepOutcome {
    std::vector<PointResult> points;
    /** Sum of the points' setupSeconds plus buildLitmusCells. */
    double setupSeconds = 0.0;
    /** Host wall time of the sweep, planning to digest: what a user
     *  running this sweep waits for. */
    double wallSeconds = 0.0;
    /** Process user + system CPU seconds over the sweep. */
    double cpuSeconds = 0.0;
    unsigned failed = 0;
    /** SHA-256 over every point's serialized stats (stall breakdown
     *  excluded) and memory digest, in declaration order. */
    std::string resultSha256;
};

/** Outcome of a run of repeated sweeps. */
struct LoopOutcome {
    /** Sweeps run, all to completion. */
    unsigned sweeps = 0;
    double wallSeconds = 0.0;
    /** Why the loop stopped early (a sweep could not be planned). */
    std::string error;
};

/** Plans one sweep; spans go under the given parent. */
using SweepPlanner = std::function<SweepPlan(SpanLog *, std::int64_t)>;

/** Receives each finished sweep; calls are serialized. */
using SweepSink = std::function<void(SweepOutcome &&)>;

/**
 * Runs sweeps from @p planner one after another. Each sweep is a closed
 * loop of @p jobs workers: a worker that finishes a point takes the next
 * one in declaration order, and the sweep ends when its last point has
 * finished, so each sweep's wall time is what a user running it alone
 * waits for, its longest point included. Once @p deadline has passed no
 * new sweep starts (at least one always runs). Each finished sweep goes
 * to @p sink and is then dropped, so memory does not grow with the run.
 * A point that throws or fails validation is recorded as failed and the
 * sweep carries on. Spans go to @p log when it is non-null.
 */
LoopOutcome runLoop(const SweepPlanner &planner, const SweepSink &sink,
                    unsigned jobs, SpanLog *log,
                    Clock::time_point deadline);

/** runLoop over planSweep(@p w, @p seed, @p traced). */
LoopOutcome runWorkload(Workload w, std::uint64_t seed, bool traced,
                        const SweepSink &sink, unsigned jobs, SpanLog *log,
                        Clock::time_point deadline);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
