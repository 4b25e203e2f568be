#ifndef BOWSIM_HARNESS_JSON_CHECK_HPP
#define BOWSIM_HARNESS_JSON_CHECK_HPP

#include <cstdint>
#include <string>

#include "src/harness/json.hpp"

/**
 * @file
 * Artifact validation shared by the json_check CLI (bench_smoke) and the
 * unit tests: loading a JSON document from disk, structural checks for
 * sweep artifacts (--json), and property checks for Chrome trace_event
 * documents produced by the trace exporter.
 */

namespace bowsim::harness {

/** One validation outcome: ok plus a human-readable explanation. */
struct CheckResult {
    bool ok = true;
    std::string message;
};

/** Reads and parses @p path; throws FatalError on IO or parse errors. */
Json loadJsonFile(const std::string &path);

/**
 * Validates a sweep artifact (--json): a "points" array of
 * @p expected_points entries (any size when negative) in which every
 * point reports ok == true and carries a "config" object with exactly
 * the keys configToJson writes for its num_devices (so no idle_skip)
 * and an exec_mode of "cycle" or "functional", plus one stats shard per
 * device when num_devices > 1; no point may carry the IPC-estimator
 * fields ipc_est, ipc_ci95 or sampled_windows.
 */
CheckResult checkSweepArtifact(const Json &doc,
                               std::int64_t expected_points = -1);

/**
 * Validates a Chrome trace_event document (docs/TRACING.md):
 *  - "traceEvents" is an array of objects, each with a "ph" phase;
 *  - every non-metadata event carries numeric ts/pid/tid;
 *  - timestamps are non-decreasing per (pid, tid) track;
 *  - "B"/"E" duration events balance per track (no unmatched end, no
 *    open interval left at the end of the document).
 */
CheckResult checkChromeTrace(const Json &doc);

/**
 * Validates a metrics time-series document (docs/METRICS.md):
 *  - "interval" is a positive integer and "columns" an array of
 *    {name, kind} objects matching every row's length;
 *  - the "cycle" column is strictly increasing, and every row sits on
 *    the sample grid (cycle % interval == 0) or is a launch-boundary
 *    row (the launch index changes next row, or it is the final row);
 *  - counter columns are non-decreasing over the whole series;
 *  - the "launch" column is non-decreasing.
 * With @p stats (a sweep artifact's "stats" object for the same run),
 * additionally checks that the final row agrees with the record on
 * every column that mirrors a stats counter, as the sampler lists them
 * (metrics::statsMirrors for the record's device count): "cycle" vs
 * "cycles", "l2_accesses" vs "mem.l2_accesses", and so on, link
 * columns included. A "d<N>." column is compared against
 * stats.devices[N], and a counter the record omits (statsToJson leaves
 * out a zero link_packets) reads as 0.
 */
CheckResult checkMetricsSeries(const Json &doc,
                               const Json *stats = nullptr);

/**
 * Validates a litmus outcome-matrix document (docs/SYNC.md):
 *  - the header records bench, the base configuration as "config"
 *    (checked like a sweep point's, with a positive watchdog_cycles),
 *    threads_per_cta and iters;
 *  - the axis lists (primitives, schedulers, bows, occupancies) are
 *    non-empty and name known primitives/occupancy levels;
 *  - "cells" covers the full axis cross-product exactly once, and each
 *    cell carries its coordinates, geometry, a legal outcome, and a
 *    stats object with one shard per device in stats.devices when the
 *    cell runs on more than one device (none on one device).
 * @p expected_cells additionally pins the cell count when >= 0.
 */
CheckResult checkLitmusMatrix(const Json &doc,
                              std::int64_t expected_cells = -1);

/**
 * Validates a sync-contention report (--sync-report, docs/SYNC.md):
 *  - version 1 header with positive top_n and storm_window;
 *  - a "totals" block with consistent counters (cas_failures <=
 *    cas_attempts <= atomics, failed_share in [0, 1], local + remote
 *    timed atomics folding to timed_atomics);
 *  - an "addresses" array (at most top_n entries, sorted hottest-first
 *    by failed CAS count) in which each entry carries the same
 *    counter invariants, log2 histograms of at most 32 non-negative
 *    buckets, a fairness block with gini in [0, 1], and storm
 *    intervals with from <= to.
 */
CheckResult checkSyncReport(const Json &doc);

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_JSON_CHECK_HPP
