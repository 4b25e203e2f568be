#include "src/harness/sweep.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "src/common/log.hpp"
#include "src/kernels/registry.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sim/gpu.hpp"
#include "src/syncprof/syncprof.hpp"
#include "src/trace/chrome_exporter.hpp"
#include "src/trace/ring_recorder.hpp"

#include <fstream>

namespace bowsim::harness {

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/**
 * Writes one side artifact of a finished point with @p write. Called
 * even when the point failed: the trace window, the metrics series and
 * the contention report leading up to a watchdog abort are the ones
 * worth reading. A write error fails the point, but the point's own
 * error wins.
 */
template <typename Write>
void
writeSideArtifact(SweepResult &r, Write &&write)
{
    try {
        write();
    } catch (const std::exception &e) {
        if (r.ok) {
            r.ok = false;
            r.error = e.what();
        }
    }
}

SweepResult
runPoint(const SweepPoint &point)
{
    SweepResult r;
    std::unique_ptr<trace::RingRecorder> recorder;
    if (!point.tracePath.empty()) {
        recorder = std::make_unique<trace::RingRecorder>();
        if (!point.traceFilter.empty()) {
            std::uint32_t mask = 0;
            if (!trace::parseCategoryFilter(point.traceFilter, &mask)) {
                r.error = "bad --trace-filter '" + point.traceFilter + "'";
                return r;
            }
            recorder->setFilter(mask);
        }
    }
    std::unique_ptr<metrics::MetricsSampler> sampler;
    if (!point.metricsPath.empty()) {
        const Cycle interval =
            point.metricsInterval ? point.metricsInterval : 1000;
        sampler = std::make_unique<metrics::MetricsSampler>(
            interval, point.metricsPath);
    }
    std::unique_ptr<syncprof::SyncProfileRegistry> syncreg;
    if (!point.syncReportPath.empty() || point.syncProfile) {
        syncreg = std::make_unique<syncprof::SyncProfileRegistry>();
    }
    try {
        Gpu gpu(point.cfg);
        if (recorder)
            gpu.setTraceSink(recorder.get());
        if (sampler)
            gpu.setMetrics(sampler.get());
        if (syncreg)
            gpu.setSyncProf(syncreg.get());
        r.stats = point.gpuBody
                      ? point.gpuBody(gpu)
                      : makeBenchmark(point.kernel, point.scale, point.params)
                            ->run(gpu);
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    } catch (...) {
        r.error = "unknown error";
    }
    if (syncreg)
        r.syncProfileText = syncreg->hotReport();
    if (syncreg && !point.syncReportPath.empty()) {
        writeSideArtifact(r, [&] {
            std::ofstream out(point.syncReportPath);
            if (!out)
                fatal("cannot write sync report '", point.syncReportPath,
                      "'");
            out << syncreg->reportJson().dump(2) << "\n";
        });
    }
    if (sampler)
        writeSideArtifact(r, [&] { sampler->writeFile(); });
    if (recorder) {
        writeSideArtifact(r, [&] {
            trace::ChromeTraceMeta meta;
            meta.label = point.id;
            meta.dropped = recorder->dropped();
            trace::writeChromeTraceFile(recorder->events(), point.tracePath,
                                        meta);
        });
    }
    return r;
}

}  // namespace

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepPoint> &points) const
{
    std::vector<SweepResult> results(points.size());
    unsigned workers = jobs_;
    if (workers > points.size())
        workers = static_cast<unsigned>(points.size());

    if (workers <= 1) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            results[i] = runPoint(points[i]);
            if (callback_)
                callback_(i, results[i]);
        }
        return results;
    }

    // Fixed pool; workers claim points in submission order so early
    // (usually slower, lower-indexed) points start first. results[i] is
    // owned exclusively by the claiming worker, so no locking is needed
    // beyond the claim counter (and the callback mutex).
    std::atomic<std::size_t> next{0};
    std::mutex cb_mu;
    auto worker = [&]() {
        while (true) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size())
                return;
            results[i] = runPoint(points[i]);
            if (callback_) {
                std::lock_guard<std::mutex> lock(cb_mu);
                callback_(i, results[i]);
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return results;
}

namespace {

/**
 * Double checked for NaN/Inf before emission: both serialize to tokens
 * no JSON parser accepts, so an artifact containing one could not be
 * read back, and a non-finite statistic is a simulator bug anyway.
 */
double
finite(const char *key, double v)
{
    if (!std::isfinite(v))
        fatal("statsToJson: non-finite value for \"", key, "\"");
    return v;
}

}  // namespace

Json
statsToJson(const KernelStats &s)
{
    Json j = Json::object();
    j.set("kernel", s.kernel);
    j.set("cycles", s.cycles);
    j.set("warp_instructions", s.warpInstructions);
    j.set("thread_instructions", s.threadInstructions);
    j.set("sync_thread_instructions", s.syncThreadInstructions);
    j.set("sib_instructions", s.sibInstructions);
    j.set("active_lane_sum", s.activeLaneSum);
    j.set("simd_efficiency", finite("simd_efficiency", s.simdEfficiency()));
    j.set("ipc", finite("ipc", s.ipc()));

    Json mem = Json::object();
    mem.set("l1_accesses", s.l1Accesses);
    mem.set("l1_hits", s.l1Hits);
    mem.set("l1_misses", s.l1Misses);
    mem.set("shared_accesses", s.sharedAccesses);
    mem.set("sync_mem_transactions", s.syncMemTransactions);
    mem.set("l2_accesses", s.mem.l2Accesses);
    mem.set("l2_hits", s.mem.l2Hits);
    mem.set("l2_misses", s.mem.l2Misses);
    mem.set("dram_accesses", s.mem.dramAccesses);
    mem.set("dram_row_activations", s.mem.dramRowActivations);
    mem.set("atomics", s.mem.atomics);
    mem.set("atomic_wait_cycles", s.mem.atomicWaitCycles);
    mem.set("icnt_packets", s.mem.icntPackets);
    // Inter-device link traffic is only possible on multi-device runs;
    // single-device artifacts stay byte-stable by omission.
    if (s.mem.linkPackets != 0)
        mem.set("link_packets", s.mem.linkPackets);
    j.set("mem", std::move(mem));

    Json out = Json::object();
    out.set("lock_success", s.outcomes.lockSuccess);
    out.set("inter_warp_fail", s.outcomes.interWarpFail);
    out.set("intra_warp_fail", s.outcomes.intraWarpFail);
    out.set("wait_exit_success", s.outcomes.waitExitSuccess);
    out.set("wait_exit_fail", s.outcomes.waitExitFail);
    j.set("outcomes", std::move(out));

    Json sched = Json::object();
    sched.set("resident_warp_cycles", s.residentWarpCycles);
    sched.set("backed_off_warp_cycles", s.backedOffWarpCycles);
    sched.set("delay_limit_cycle_sum", s.delayLimitCycleSum);
    sched.set("sm_cycles", s.smCycles);
    // Per-SM peak residency (empty when no cycle-mode SM ran, e.g. on
    // functional points).
    if (!s.peakResidentPerSm.empty()) {
        Json peaks = Json::array();
        for (std::uint64_t p : s.peakResidentPerSm)
            peaks.push(p);
        sched.set("peak_resident_per_sm", std::move(peaks));
    }
    sched.set("avg_delay_limit",
              finite("avg_delay_limit", s.avgDelayLimit()));
    j.set("sched", std::move(sched));

    // Derived rates for humans/plots, and the raw counters they come
    // from.
    Json ddos = Json::object();
    ddos.set("tsdr", finite("tsdr", s.ddos.tsdr()));
    ddos.set("fsdr", finite("fsdr", s.ddos.fsdr()));
    ddos.set("dpr_true", finite("dpr_true", s.ddos.dprTrue()));
    ddos.set("dpr_false", finite("dpr_false", s.ddos.dprFalse()));
    ddos.set("true_branches", s.ddos.trueBranches);
    ddos.set("true_detected", s.ddos.trueDetected);
    ddos.set("false_branches", s.ddos.falseBranches);
    ddos.set("false_detected", s.ddos.falseDetected);
    ddos.set("dpr_true_sum", finite("dpr_true_sum", s.ddos.dprTrueSum));
    ddos.set("dpr_false_sum",
             finite("dpr_false_sum", s.ddos.dprFalseSum));
    j.set("ddos", std::move(ddos));

    // Only present when collected (trace sink attached or
    // collectStallBreakdown set) so default artifacts stay byte-stable.
    if (s.hasStallBreakdown()) {
        Json stall = Json::object();
        auto totals = s.stallTotals();
        for (unsigned c = 0; c < trace::kNumStallCauses; ++c) {
            stall.set(trace::toString(static_cast<trace::StallCause>(c)),
                      totals[c]);
        }
        j.set("stall", std::move(stall));
        // The full per-warp table (the "stall" block above is its
        // per-cause projection).
        Json table = Json::object();
        table.set("warps_per_sm", s.stallWarpsPerSm);
        Json counts = Json::array();
        for (std::uint64_t c : s.stallCounts)
            counts.push(c);
        table.set("counts", std::move(counts));
        j.set("stall_table", std::move(table));
    }
    if (!s.unitIssues.empty()) {
        Json units = Json::object();
        units.set("units_per_sm", s.unitsPerSm);
        Json counts = Json::array();
        for (std::uint64_t c : s.unitIssues)
            counts.push(c);
        units.set("counts", std::move(counts));
        j.set("unit_issues", std::move(units));
    }

    Json ev = Json::object();
    ev.set("warp_instructions", s.energy.warpInstructions);
    ev.set("lane_alu_ops", s.energy.laneAluOps);
    ev.set("rf_read_lanes", s.energy.rfReadLanes);
    ev.set("rf_write_lanes", s.energy.rfWriteLanes);
    ev.set("shared_accesses", s.energy.sharedAccesses);
    ev.set("l1_accesses", s.energy.l1Accesses);
    ev.set("l2_accesses", s.energy.l2Accesses);
    ev.set("dram_accesses", s.energy.dramAccesses);
    ev.set("icnt_packets", s.energy.icntPackets);
    ev.set("atomic_ops", s.energy.atomicOps);
    j.set("energy_events", std::move(ev));

    j.set("energy_nj", finite("energy_nj", s.energyNj));
    j.set("static_energy_nj",
          finite("static_energy_nj", s.staticEnergyNj));

    // Per-device stat shards (numDevices > 1 only), in device-id order.
    // Shards never nest — their own perDevice is empty — so the
    // recursion terminates after one level.
    if (!s.perDevice.empty()) {
        Json devs = Json::array();
        for (const KernelStats &d : s.perDevice)
            devs.push(statsToJson(d));
        j.set("devices", std::move(devs));
    }
    return j;
}

/*
 * Field-coverage guard for the one configuration record below. If this
 * assertion fires, GpuConfig (or one of its nested structs) gained,
 * lost or resized a field. A field that can influence simulated results
 * MUST be written by configToJson() before the expected sizes are
 * updated: a field left out of the record would let two points that
 * simulate differently write the same "config" block, so an artifact
 * would no longer say what produced its statistics. That failure is
 * silent at run time (the record still looks valid), which is why the
 * guard is structural: growing the struct breaks the build until a
 * human re-audits the record.
 */
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(GpuConfig) == 224 && sizeof(BowsConfig) == 40 &&
                  sizeof(DdosConfig) == 20 && sizeof(CacheConfig) == 16,
              "GpuConfig layout changed: write any new field in "
              "configToJson(), then update these expected sizes (see the "
              "comment above)");
#endif

Json
configToJson(const GpuConfig &cfg)
{
    Json j = Json::object();
    j.set("name", cfg.name);
    j.set("cores", cfg.numCores);
    j.set("max_threads_per_core", cfg.maxThreadsPerCore);
    j.set("num_regs_per_core", cfg.numRegsPerCore);
    j.set("num_schedulers_per_core", cfg.numSchedulersPerCore);
    j.set("scheduler", toString(cfg.scheduler));
    j.set("gto_rotate_period", cfg.gtoRotatePeriod);
    j.set("bows_enabled", cfg.bows.enabled);
    j.set("bows_deprioritize", cfg.bows.deprioritize);
    j.set("bows_delay_limit", cfg.bows.delayLimit);
    j.set("bows_adaptive", cfg.bows.adaptive);
    j.set("bows_min_limit", cfg.bows.minLimit);
    j.set("bows_max_limit", cfg.bows.maxLimit);
    j.set("ddos_hash", toString(cfg.ddos.hash));
    j.set("ddos_hash_bits", cfg.ddos.hashBits);
    j.set("ddos_history_length", cfg.ddos.historyLength);
    j.set("ddos_confidence_threshold", cfg.ddos.confidenceThreshold);
    j.set("ddos_time_share", cfg.ddos.timeShare);
    j.set("spin_detect", toString(cfg.spinDetect));
    j.set("l1d_size_bytes", cfg.l1d.sizeBytes);
    j.set("l1d_ways", cfg.l1d.ways);
    j.set("l1_mshrs", cfg.l1Mshrs);
    j.set("l2_size_bytes", cfg.l2.sizeBytes);
    j.set("l2_ways", cfg.l2.ways);
    j.set("num_l2_banks", cfg.numL2Banks);
    j.set("l2_hit_latency", cfg.l2HitLatency);
    j.set("dram_latency", cfg.dramLatency);
    j.set("dram_service_period", cfg.dramServicePeriod);
    j.set("atomic_service_period", cfg.atomicServicePeriod);
    j.set("core_clock_mhz", cfg.coreClockMhz);
    j.set("watchdog_cycles", cfg.watchdogCycles);
    // A stats-collection gate: it changes what statsToJson emits (the
    // stall tables), so it belongs to the record although it never
    // alters timing.
    j.set("collect_stall_breakdown", cfg.collectStallBreakdown);
    j.set("exec_mode", toString(cfg.execMode));
    j.set("num_devices", cfg.numDevices);
    // The link is only modelled, and only recorded, across devices.
    if (cfg.numDevices != 1) {
        j.set("link_latency", kLinkLatency);
        j.set("link_service_period", kLinkServicePeriod);
        j.set("switch_latency", kSwitchLatency);
    }
    return j;
}

Json
sweepToJson(const std::string &bench_name,
            const std::vector<SweepPoint> &points,
            const std::vector<SweepResult> &results)
{
    if (points.size() != results.size())
        panic("sweepToJson: points/results size mismatch");
    Json doc = Json::object();
    doc.set("bench", bench_name);
    Json arr = Json::array();
    for (std::size_t i = 0; i < points.size(); ++i) {
        Json p = Json::object();
        p.set("id", points[i].id);
        if (!points[i].kernel.empty())
            p.set("kernel", points[i].kernel);
        p.set("scale", points[i].scale);
        if (!points[i].params.empty()) {
            Json params = Json::object();
            for (const auto &[key, value] : points[i].params)
                params.set(key, value);
            p.set("params", std::move(params));
        }
        p.set("ok", results[i].ok);
        p.set("config", configToJson(points[i].cfg));
        if (results[i].ok)
            p.set("stats", statsToJson(results[i].stats));
        else
            p.set("error", results[i].error);
        arr.push(std::move(p));
    }
    doc.set("points", std::move(arr));
    return doc;
}

}  // namespace bowsim::harness
