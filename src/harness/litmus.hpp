#ifndef BOWSIM_HARNESS_LITMUS_HPP
#define BOWSIM_HARNESS_LITMUS_HPP

#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/harness/json.hpp"
#include "src/stats/stats.hpp"
#include "src/sync/primitives.hpp"

namespace bowsim {
class GpuSystem;
using Gpu = GpuSystem;
struct LaunchAbort;
}

/**
 * @file
 * Synchronization litmus harness (docs/SYNC.md). A litmus matrix runs
 * every generated primitive (src/sync) under every combination of
 * baseline scheduler, BOWS on/off, occupancy level, and device count
 * (single-GPU and 2-GPU with the modeled inter-device link), with a
 * short
 * watchdog and DDOS spin detection, and classifies each cell's outcome:
 *
 *  - completed: the kernel finished and validated against src/cpuref.
 *  - livelocked: the watchdog fired while warps were still actively
 *    issuing a spin-dominated instruction stream (forward progress
 *    starved, not blocked) — e.g. pure GTO starving a lock holder, or
 *    an over-subscribed inter-CTA barrier spinning on CTAs that can
 *    never become resident.
 *  - deadlocked: no warp had issued for a long tail of the run
 *    (everything blocked, e.g. divergent bar.sync), or functional
 *    mode's zero-progress check fired.
 *  - watchdog_killed: the watchdog fired but the stream was still
 *    making non-spin progress — the budget was simply too small.
 *
 * Classification consumes Gpu::lastAbort(), which is deterministic
 * across idle-skip, so a litmus artifact is byte-identical across that
 * execution knob and --jobs; neither is in the document.
 */

namespace bowsim::harness {

/** Classified result of one litmus cell. */
enum class SyncOutcome {
    Completed,
    Livelocked,
    Deadlocked,
    WatchdogKilled,
};

/** "completed", "livelocked", "deadlocked", "watchdog_killed". */
const char *toString(SyncOutcome o);

/** Parses the toString() identifiers; false on anything else. */
bool parseSyncOutcome(const std::string &text, SyncOutcome *out);

/** Grid size relative to the configuration's resident-CTA capacity. */
enum class OccupancyLevel {
    Under,  ///< half the resident capacity (at least one CTA)
    Exact,  ///< exactly the resident capacity
    Over,   ///< twice the resident capacity
};

/** "under", "exact", "over". */
const char *toString(OccupancyLevel level);

/** Parses the toString() identifiers; false on anything else. */
bool parseOccupancy(const std::string &text, OccupancyLevel *out);

/** All occupancy levels, in a fixed canonical order. */
const std::vector<OccupancyLevel> &allOccupancyLevels();

/** Spin-dominance threshold for the livelock classification: a cell
 *  whose aborted run spent at least this fraction of its warp
 *  instructions on (predicted or ground-truth) spin-inducing branches
 *  counts as livelocked rather than merely out of budget. */
inline constexpr double kLivelockSibFraction = 0.05;

/** Issue-recency threshold for the deadlock classification: an abort
 *  with no instruction issued in the trailing quarter of the watchdog
 *  budget counts as deadlocked (blocked), not livelocked (spinning). */
inline constexpr double kDeadlockIdleFraction = 0.25;

/** One cell of the litmus matrix. */
struct LitmusCell {
    /** "tas/GTO/bows/over/d2" —
     *  primitive/scheduler/bows/occupancy/devices. */
    std::string id;
    sync::Primitive primitive;
    SchedulerKind scheduler;
    bool bows = false;
    OccupancyLevel occupancy;
    /** Devices the cell runs across (cfg.numDevices). */
    unsigned numDevices = 1;
    sync::SyncGeometry geometry;
    /** Complete configuration the cell runs under. */
    GpuConfig cfg;
};

/** Outcome of one executed cell. */
struct LitmusCellResult {
    SyncOutcome outcome = SyncOutcome::WatchdogKilled;
    /** Final stats (completed) or the abort snapshot (everything else). */
    KernelStats stats;
    /** The SimError message for non-completed outcomes; empty else. */
    std::string detail;
    /**
     * Machine-checked contention evidence (docs/SYNC.md): the hottest
     * sync address the cell touched, from the sync profiler attached by
     * runLitmusCell on cycle-mode cells. json_check --litmus requires
     * it on every livelocked cycle-mode cell, so "livelocked" is never
     * a bare classification — the artifact names the address and the
     * failed-CAS share behind it. False when the profiler saw no
     * atomics (functional mode, or an atomics-free cell).
     */
    bool hasEvidence = false;
    Addr evidenceAddr = 0;
    std::uint64_t evidenceCasAttempts = 0;
    std::uint64_t evidenceCasFailures = 0;
    double evidenceFailedShare = 0.0;
    unsigned evidencePeakWaiters = 0;
    std::uint64_t evidenceStorms = 0;
};

/** The matrix to run: axis lists plus the shared base configuration. */
struct LitmusOptions {
    /** Base configuration every cell derives from
     *  (defaultLitmusConfig()), recorded once as the document's
     *  "config"; scheduler, bows.enabled and numDevices are
     *  overwritten per cell. */
    GpuConfig base;
    std::vector<sync::Primitive> primitives;
    std::vector<SchedulerKind> schedulers;
    /** BOWS off/on; "base" and "bows" in cell ids. */
    std::vector<bool> bowsModes;
    std::vector<OccupancyLevel> occupancies;
    /** Device counts (GpuConfig::numDevices); "d1", "d2" in cell ids.
     *  Occupancy geometry scales with the device count so "exact"
     *  always means the whole grid is co-resident system-wide. */
    std::vector<unsigned> devices = {1};
    unsigned threadsPerCta = 64;
    /** Lock rounds per warp / barrier rounds. */
    unsigned iters = 16;
    /** BackoffLock clock()-delay base (SyncGeometry::delayFactor). */
    unsigned delayFactor = 64;
};

/**
 * Litmus base configuration: one SM, a litmus-sized watchdog, DDOS
 * spin detection, and — crucially — GTO age rotation disabled, so the
 * pure-GTO starvation the rotation exists to paper over is observable
 * as a livelock.
 */
GpuConfig defaultLitmusConfig();

/** Full default matrix: all primitives x {LRR, GTO, CAWA, TwoLevel} x
 *  {base, bows} x {under, exact, over} x {1, 2} devices. */
LitmusOptions defaultLitmusOptions();

/**
 * Expands @p opts into concrete cells (primitive-major, then
 * scheduler, BOWS mode, occupancy, device count). Occupancy geometry
 * derives from maxResidentCtasFor() on the assembled primitive at
 * opts.threadsPerCta, scaled by base.numCores and the cell's device
 * count (CTAs are chunked evenly across devices, so the system-wide
 * capacity is the per-device capacity times the device count).
 */
std::vector<LitmusCell> buildLitmusCells(const LitmusOptions &opts);

/**
 * Runs @p cell's kernel on @p gpu (constructed from cell.cfg, possibly
 * with execution-knob overrides) and classifies the outcome. Hang
 * aborts (LaunchAbort::cause Watchdog or NoProgress) are absorbed into
 * the classification; validation failures and faults propagate — they
 * signal harness bugs, not synchronization pathologies.
 */
LitmusCellResult runLitmusCell(const LitmusCell &cell, Gpu &gpu);

/**
 * Classifies a hang abort from the Gpu's abort record (see the file
 * comment for the taxonomy); a NoProgress cause, functional mode's
 * zero-progress check, is Deadlocked outright.
 */
SyncOutcome classifySyncAbort(const LaunchAbort &abort,
                              const GpuConfig &cfg);

/**
 * Builds the litmus artifact: { "bench", "config", "threads_per_cta",
 * "iters", "primitives", "schedulers", "bows", "occupancies",
 * "devices", "cells": [...] }. "config" is configToJson(opts.base),
 * written once; each cell records only its coordinates (scheduler,
 * bows, devices, ...), its geometry, its outcome and its stats. No
 * execution knob is recorded, so artifacts are byte-identical across
 * --jobs and idle-skip.
 */
Json litmusToJson(const std::string &bench_name,
                  const LitmusOptions &opts,
                  const std::vector<LitmusCell> &cells,
                  const std::vector<LitmusCellResult> &results);

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_LITMUS_HPP
