#include "src/harness/litmus.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/common/log.hpp"
#include "src/harness/sweep.hpp"
#include "src/isa/assembler.hpp"
#include "src/sim/gpu.hpp"
#include "src/sim/sm_core.hpp"
#include "src/sync/sync_kernels.hpp"
#include "src/syncprof/syncprof.hpp"

namespace bowsim::harness {

const char *
toString(SyncOutcome o)
{
    switch (o) {
      case SyncOutcome::Completed: return "completed";
      case SyncOutcome::Livelocked: return "livelocked";
      case SyncOutcome::Deadlocked: return "deadlocked";
      case SyncOutcome::WatchdogKilled: return "watchdog_killed";
    }
    return "?";
}

bool
parseSyncOutcome(const std::string &text, SyncOutcome *out)
{
    static const SyncOutcome all[] = {
        SyncOutcome::Completed,
        SyncOutcome::Livelocked,
        SyncOutcome::Deadlocked,
        SyncOutcome::WatchdogKilled,
    };
    for (SyncOutcome o : all) {
        if (text == toString(o)) {
            *out = o;
            return true;
        }
    }
    return false;
}

const char *
toString(OccupancyLevel level)
{
    switch (level) {
      case OccupancyLevel::Under: return "under";
      case OccupancyLevel::Exact: return "exact";
      case OccupancyLevel::Over: return "over";
    }
    return "?";
}

bool
parseOccupancy(const std::string &text, OccupancyLevel *out)
{
    for (OccupancyLevel level : allOccupancyLevels()) {
        if (text == toString(level)) {
            *out = level;
            return true;
        }
    }
    return false;
}

const std::vector<OccupancyLevel> &
allOccupancyLevels()
{
    static const std::vector<OccupancyLevel> levels = {
        OccupancyLevel::Under,
        OccupancyLevel::Exact,
        OccupancyLevel::Over,
    };
    return levels;
}

GpuConfig
defaultLitmusConfig()
{
    GpuConfig cfg = makeGtx480Config();
    // One SM: occupancy levels are defined against one core's resident
    // capacity, and every scheduling pathology under study is
    // intra-core.
    cfg.numCores = 1;
    // A litmus-sized budget: completing cells finish inside it (the
    // slowest default cell needs ~2.8M cycles), pathological cells do
    // not drag a 400M-cycle default behind them.
    cfg.watchdogCycles = 3'000'000;
    // Scarce atomic bandwidth (Table II's knob, turned up): failed
    // acquires then consume enough L2 atomic slots to starve the
    // holder's release, which is what lets the CAS-storm livelock that
    // BOWS resolves show up at this kernel scale. At the GTX480 default
    // of 4 the spin CAS rate never saturates a bank and every lock cell
    // completes.
    cfg.atomicServicePeriod = 512;
    // Pure GTO: the age rotation exists precisely to mask the
    // starvation livelock the litmus matrix wants to observe.
    cfg.gtoRotatePeriod = 0;
    cfg.spinDetect = SpinDetect::Ddos;
    cfg.bows.enabled = false;
    return cfg;
}

LitmusOptions
defaultLitmusOptions()
{
    LitmusOptions opts;
    opts.base = defaultLitmusConfig();
    opts.primitives = sync::allPrimitives();
    opts.schedulers = {SchedulerKind::LRR, SchedulerKind::GTO,
                       SchedulerKind::CAWA, SchedulerKind::TwoLevel};
    opts.bowsModes = {false, true};
    opts.occupancies = allOccupancyLevels();
    opts.devices = {1, 2};
    return opts;
}

namespace {

unsigned
ctasForOccupancy(OccupancyLevel level, unsigned capacity)
{
    switch (level) {
      case OccupancyLevel::Under: return std::max(1u, capacity / 2);
      case OccupancyLevel::Exact: return std::max(1u, capacity);
      case OccupancyLevel::Over: return std::max(2u, capacity * 2);
    }
    fatal("ctasForOccupancy: bad occupancy level");
}

}  // namespace

std::vector<LitmusCell>
buildLitmusCells(const LitmusOptions &opts)
{
    std::vector<LitmusCell> cells;
    for (sync::Primitive p : opts.primitives) {
        // Resident capacity depends only on the program and CTA size,
        // so probe once per primitive.
        sync::SyncGeometry probe;
        probe.threadsPerCta = opts.threadsPerCta;
        probe.iters = opts.iters;
        probe.delayFactor = opts.delayFactor;
        const Program prog = assemble(sync::primitiveSource(p, probe));
        const unsigned capacity =
            maxResidentCtasFor(opts.base, prog, opts.threadsPerCta) *
            std::max(1u, opts.base.numCores);
        for (SchedulerKind sched : opts.schedulers) {
            for (bool bows : opts.bowsModes) {
                for (OccupancyLevel level : opts.occupancies) {
                    for (unsigned dev : opts.devices) {
                        if (dev == 0)
                            fatal("buildLitmusCells: zero devices");
                        LitmusCell cell;
                        cell.primitive = p;
                        cell.scheduler = sched;
                        cell.bows = bows;
                        cell.occupancy = level;
                        cell.numDevices = dev;
                        cell.geometry = probe;
                        // CTAs chunk evenly across devices, so the
                        // occupancy levels scale against the
                        // system-wide resident capacity.
                        cell.geometry.ctas =
                            ctasForOccupancy(level, capacity * dev);
                        cell.cfg = opts.base;
                        cell.cfg.scheduler = sched;
                        cell.cfg.bows.enabled = bows;
                        cell.cfg.numDevices = dev;
                        cell.id = std::string(sync::toString(p)) + "/" +
                                  bowsim::toString(sched) + "/" +
                                  (bows ? "bows" : "base") + "/" +
                                  toString(level) + "/d" +
                                  std::to_string(dev);
                        cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    return cells;
}

SyncOutcome
classifySyncAbort(const LaunchAbort &abort, const GpuConfig &cfg)
{
    // Functional mode's zero-progress check is a direct deadlock
    // witness: a full rotation over every live warp retired nothing.
    if (abort.cause == AbortCause::NoProgress)
        return SyncOutcome::Deadlocked;
    // Cycle mode: blocked (nothing issuing for a long tail) vs
    // actively spinning.
    if (abort.atCycle > 0) {
        const Cycle idle = abort.atCycle > abort.lastIssueCycle
                               ? abort.atCycle - abort.lastIssueCycle
                               : 0;
        const auto threshold = static_cast<Cycle>(
            static_cast<double>(cfg.watchdogCycles) *
            kDeadlockIdleFraction);
        if (idle >= threshold)
            return SyncOutcome::Deadlocked;
    }
    const KernelStats &s = abort.stats;
    if (s.warpInstructions > 0 &&
        static_cast<double>(s.sibInstructions) / s.warpInstructions >=
            kLivelockSibFraction)
        return SyncOutcome::Livelocked;
    return SyncOutcome::WatchdogKilled;
}

LitmusCellResult
runLitmusCell(const LitmusCell &cell, Gpu &gpu)
{
    LitmusCellResult r;
    // Contention evidence: cycle-mode cells run with a sync profiler
    // attached so the artifact can attribute the outcome to a concrete
    // address. An externally attached registry (--sync-report) is
    // reused; otherwise a cell-local one is attached for the duration.
    std::unique_ptr<syncprof::SyncProfileRegistry> local;
    syncprof::SyncProfileRegistry *reg = gpu.syncProf();
    if (reg == nullptr && gpu.config().execMode == ExecMode::Cycle) {
        local = std::make_unique<syncprof::SyncProfileRegistry>();
        reg = local.get();
        gpu.setSyncProf(reg);
    }
    auto harness = sync::makeSyncKernel(cell.primitive, cell.geometry);
    try {
        r.stats = harness->run(gpu);
        r.outcome = SyncOutcome::Completed;
    } catch (const SimError &e) {
        const LaunchAbort &abort = gpu.lastAbort();
        // A fault (out-of-bounds access, kernel does not fit) is a
        // harness bug, not a synchronization pathology.
        if (!abort.valid || abort.cause == AbortCause::Fault)
            throw;
        r.detail = e.what();
        r.stats = abort.stats;
        r.stats.kernel = harness->name();
        r.outcome = classifySyncAbort(abort, gpu.config());
    }
    if (reg != nullptr) {
        const auto hot = reg->hotAddresses(1);
        if (!hot.empty()) {
            const syncprof::AddrSummary &a = hot.front();
            r.hasEvidence = true;
            r.evidenceAddr = a.addr;
            r.evidenceCasAttempts = a.casAttempts;
            r.evidenceCasFailures = a.casFailures;
            r.evidenceFailedShare = a.failedShare();
            r.evidencePeakWaiters = a.peakWaiters;
            r.evidenceStorms = a.stormCount;
        }
    }
    if (local)
        gpu.setSyncProf(nullptr);
    return r;
}

Json
litmusToJson(const std::string &bench_name, const LitmusOptions &opts,
             const std::vector<LitmusCell> &cells,
             const std::vector<LitmusCellResult> &results)
{
    if (cells.size() != results.size())
        panic("litmusToJson: cells/results size mismatch");
    Json doc = Json::object();
    doc.set("bench", bench_name);
    // Every cell runs this base with its own scheduler, BOWS flag and
    // device count, which the cell records as coordinates.
    doc.set("config", configToJson(opts.base));
    doc.set("threads_per_cta", opts.threadsPerCta);
    doc.set("iters", opts.iters);
    Json prims = Json::array();
    for (sync::Primitive p : opts.primitives)
        prims.push(Json(std::string(sync::toString(p))));
    doc.set("primitives", std::move(prims));
    Json scheds = Json::array();
    for (SchedulerKind s : opts.schedulers)
        scheds.push(Json(std::string(toString(s))));
    doc.set("schedulers", std::move(scheds));
    Json bows = Json::array();
    for (bool b : opts.bowsModes)
        bows.push(Json(b));
    doc.set("bows", std::move(bows));
    Json occs = Json::array();
    for (OccupancyLevel level : opts.occupancies)
        occs.push(Json(std::string(toString(level))));
    doc.set("occupancies", std::move(occs));
    Json devs = Json::array();
    for (unsigned dev : opts.devices)
        devs.push(Json(static_cast<std::int64_t>(dev)));
    doc.set("devices", std::move(devs));
    Json arr = Json::array();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const LitmusCell &cell = cells[i];
        const LitmusCellResult &r = results[i];
        Json c = Json::object();
        c.set("id", cell.id);
        c.set("primitive", std::string(sync::toString(cell.primitive)));
        c.set("scheduler", std::string(toString(cell.scheduler)));
        c.set("bows", cell.bows);
        c.set("occupancy", std::string(toString(cell.occupancy)));
        c.set("devices", cell.numDevices);
        c.set("ctas", cell.geometry.ctas);
        c.set("warps_per_cta", cell.geometry.warpsPerCta());
        c.set("iters", cell.geometry.iters);
        c.set("outcome", std::string(toString(r.outcome)));
        if (!r.detail.empty())
            c.set("detail", r.detail);
        if (r.hasEvidence) {
            // Deterministic across --jobs/idle-skip like the rest of
            // the document (the profiler hooks the issued instruction
            // stream).
            Json ev = Json::object();
            std::ostringstream hex;
            hex << "0x" << std::hex << r.evidenceAddr;
            ev.set("addr", hex.str());
            ev.set("cas_attempts", r.evidenceCasAttempts);
            ev.set("cas_failures", r.evidenceCasFailures);
            ev.set("failed_share", r.evidenceFailedShare);
            ev.set("peak_waiters", r.evidencePeakWaiters);
            ev.set("storms", r.evidenceStorms);
            c.set("evidence", std::move(ev));
        }
        c.set("stats", statsToJson(r.stats));
        arr.push(std::move(c));
    }
    doc.set("cells", std::move(arr));
    return doc;
}

}  // namespace bowsim::harness
