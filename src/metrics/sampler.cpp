#include "src/metrics/sampler.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "src/common/log.hpp"
#include "src/harness/json.hpp"
#include "src/mem/l2_bank.hpp"
#include "src/sim/sm_core.hpp"
#include "src/stats/stats.hpp"
#include "src/syncprof/syncprof.hpp"

namespace bowsim::metrics {

namespace {

/** Aggregate column indices; the per-SM block starts after these. */
enum AggCol : std::size_t {
    kCycle = 0,
    kLaunch,
    kIpc,
    kWarpInstructions,
    kThreadInstructions,
    kL1Accesses,
    kL1Misses,
    kL2Accesses,
    kL2Misses,
    kDramAccesses,
    kDramRowActivations,
    kIcntPackets,
    kAtomics,
    kAtomicWaitCycles,
    kSibConfirms,
    kSibEvicts,
    kLockSuccess,
    kInterWarpFail,
    kIntraWarpFail,
    kWaitExitSuccess,
    kWaitExitFail,
    kResidentWarpCycles,
    kBackedOffWarpCycles,
    kSmCycles,
    kDelayLimitCycleSum,
    kResidentWarps,
    kEligibleWarps,
    kSpinningWarps,
    kBackedOffWarps,
    kMshrOccupancy,
    kSibOccupancy,
    kNumAggCols,
};

/** Per-SM block layout (offsets from the SM's first column). */
enum SmCol : std::size_t {
    kSmWarpInstructions = 0,
    kSmIpc,
    kSmResidentWarps,
    kSmEligibleWarps,
    kSmSpinningWarps,
    kSmBackedOffWarps,
    kSmDelayLimit,
    kSmMshr,
    kSmSibOccupancy,
    kNumSmCols,
};

}  // namespace

std::size_t
MetricsSampler::smColBase(unsigned sm) const
{
    return kNumAggCols + extraCols_ +
           static_cast<std::size_t>(sm) * kNumSmCols;
}

MetricsSampler::MetricsSampler(Cycle interval, std::string path)
    : interval_(interval), path_(std::move(path))
{
    if (interval_ == 0)
        fatal("metrics sample interval must be >= 1");
    nextSampleGlobal_ = interval_;
}

void
MetricsSampler::defineColumns(unsigned num_cores, unsigned num_devices,
                              bool has_sync)
{
    reg_.define("cycle", Kind::Counter);
    reg_.define("launch", Kind::Counter);
    reg_.define("ipc", Kind::Rate);
    reg_.define("warp_instructions", Kind::Counter);
    reg_.define("thread_instructions", Kind::Counter);
    reg_.define("l1_accesses", Kind::Counter);
    reg_.define("l1_misses", Kind::Counter);
    reg_.define("l2_accesses", Kind::Counter);
    reg_.define("l2_misses", Kind::Counter);
    reg_.define("dram_accesses", Kind::Counter);
    reg_.define("dram_row_activations", Kind::Counter);
    reg_.define("icnt_packets", Kind::Counter);
    reg_.define("atomics", Kind::Counter);
    reg_.define("atomic_wait_cycles", Kind::Counter);
    reg_.define("sib_confirms", Kind::Counter);
    reg_.define("sib_evicts", Kind::Counter);
    reg_.define("lock_success", Kind::Counter);
    reg_.define("inter_warp_fail", Kind::Counter);
    reg_.define("intra_warp_fail", Kind::Counter);
    reg_.define("wait_exit_success", Kind::Counter);
    reg_.define("wait_exit_fail", Kind::Counter);
    reg_.define("resident_warp_cycles", Kind::Counter);
    reg_.define("backed_off_warp_cycles", Kind::Counter);
    reg_.define("sm_cycles", Kind::Counter);
    reg_.define("delay_limit_cycle_sum", Kind::Counter);
    reg_.define("resident_warps", Kind::Gauge);
    reg_.define("eligible_warps", Kind::Gauge);
    reg_.define("spinning_warps", Kind::Gauge);
    reg_.define("backed_off_warps", Kind::Gauge);
    reg_.define("mshr_occupancy", Kind::Gauge);
    reg_.define("sib_occupancy", Kind::Gauge);
    // Multi-device link traffic; absent from single-device schemas so
    // those stay byte-identical to the pre-device-split layout.
    if (num_devices > 1) {
        reg_.define("link_packets", Kind::Counter);
        for (unsigned d = 0; d < num_devices; ++d) {
            reg_.define("d" + std::to_string(d) + ".link_packets",
                        Kind::Counter);
        }
    }
    // Sync-contention columns (docs/SYNC.md); absent unless a profiler
    // is attached, so default schemas stay byte-identical. Gauges, not
    // counters: the registry outlives launches, so its totals are
    // already absolute and must not be re-based at launch boundaries.
    if (has_sync) {
        reg_.define("sync_contended_lines", Kind::Gauge);
        reg_.define("sync_failed_cas_share", Kind::Rate);
        reg_.define("sync_peak_waiters", Kind::Gauge);
    }
    const unsigned per_device = num_cores / num_devices;
    for (unsigned sm = 0; sm < num_cores; ++sm) {
        std::string p;
        if (num_devices > 1)
            p = "d" + std::to_string(sm / per_device) + ".";
        p += "sm" + std::to_string(num_devices > 1 ? sm % per_device : sm) +
             ".";
        reg_.define(p + "warp_instructions", Kind::Counter);
        reg_.define(p + "ipc", Kind::Rate);
        reg_.define(p + "resident_warps", Kind::Gauge);
        reg_.define(p + "eligible_warps", Kind::Gauge);
        reg_.define(p + "spinning_warps", Kind::Gauge);
        reg_.define(p + "backed_off_warps", Kind::Gauge);
        reg_.define(p + "delay_limit", Kind::Gauge);
        reg_.define(p + "mshr", Kind::Gauge);
        reg_.define(p + "sib_occupancy", Kind::Gauge);
    }
    base_.assign(reg_.size(), 0.0);
}

void
MetricsSampler::beginLaunch(const std::string &kernel, unsigned num_cores,
                            unsigned num_devices, bool has_sync)
{
    if (num_devices == 0)
        num_devices = 1;
    if (reg_.size() == 0) {
        numCores_ = num_cores;
        numDevices_ = num_devices;
        hasSync_ = has_sync;
        linkCols_ = num_devices > 1 ? 1 + num_devices : 0;
        extraCols_ = linkCols_ + (has_sync ? 3 : 0);
        defineColumns(num_cores, num_devices, has_sync);
    } else if (num_cores != numCores_ || num_devices != numDevices_ ||
               has_sync != hasSync_) {
        fatal("metrics sampler reused across launches with ", num_cores,
              " cores / ", num_devices, " devices / sync=", has_sync,
              " (schema built for ", numCores_, " / ", numDevices_,
              " / sync=", hasSync_, ")");
    }
    kernels_.push_back(kernel);
}

std::vector<double>
MetricsSampler::collectLocal(Cycle now, const SampleSources &src) const
{
    (void)now;
    std::vector<double> local(reg_.size(), 0.0);

    // Launch-wide counters: every device's launch aggregate, summed in
    // device-id order.
    auto fold = [&](auto &&get) {
        std::uint64_t v = 0;
        for (const KernelStats *ls : src.launchStats)
            v += get(*ls);
        return static_cast<double>(v);
    };
    local[kWarpInstructions] =
        fold([](const KernelStats &s) { return s.warpInstructions; });
    local[kThreadInstructions] =
        fold([](const KernelStats &s) { return s.threadInstructions; });
    local[kL1Accesses] =
        fold([](const KernelStats &s) { return s.l1Accesses; });
    local[kL1Misses] = fold([](const KernelStats &s) { return s.l1Misses; });
    local[kLockSuccess] =
        fold([](const KernelStats &s) { return s.outcomes.lockSuccess; });
    local[kInterWarpFail] =
        fold([](const KernelStats &s) { return s.outcomes.interWarpFail; });
    local[kIntraWarpFail] =
        fold([](const KernelStats &s) { return s.outcomes.intraWarpFail; });
    local[kWaitExitSuccess] = fold(
        [](const KernelStats &s) { return s.outcomes.waitExitSuccess; });
    local[kWaitExitFail] =
        fold([](const KernelStats &s) { return s.outcomes.waitExitFail; });
    local[kResidentWarpCycles] =
        fold([](const KernelStats &s) { return s.residentWarpCycles; });
    local[kBackedOffWarpCycles] =
        fold([](const KernelStats &s) { return s.backedOffWarpCycles; });
    local[kSmCycles] = fold([](const KernelStats &s) { return s.smCycles; });
    local[kDelayLimitCycleSum] =
        fold([](const KernelStats &s) { return s.delayLimitCycleSum; });

    MemSystemStats mem;
    std::vector<MemSystemStats> per_dev_mem;
    per_dev_mem.reserve(src.memsys.size());
    for (const MemorySystem *ms : src.memsys) {
        per_dev_mem.push_back(ms->stats());
        mem += per_dev_mem.back();
    }
    local[kL2Accesses] = static_cast<double>(mem.l2Accesses);
    local[kL2Misses] = static_cast<double>(mem.l2Misses);
    local[kDramAccesses] = static_cast<double>(mem.dramAccesses);
    local[kDramRowActivations] =
        static_cast<double>(mem.dramRowActivations);
    local[kIcntPackets] = static_cast<double>(mem.icntPackets);
    local[kAtomics] = static_cast<double>(mem.atomics);
    local[kAtomicWaitCycles] = static_cast<double>(mem.atomicWaitCycles);
    if (linkCols_ != 0) {
        local[kNumAggCols] = static_cast<double>(mem.linkPackets);
        for (std::size_t d = 0; d < per_dev_mem.size(); ++d) {
            local[kNumAggCols + 1 + d] =
                static_cast<double>(per_dev_mem[d].linkPackets);
        }
    }
    if (hasSync_ && src.sync != nullptr) {
        const std::size_t b = kNumAggCols + linkCols_;
        const std::uint64_t attempts = src.sync->casAttempts();
        const std::uint64_t failures = src.sync->casFailures();
        local[b + 0] = static_cast<double>(src.sync->contendedLines());
        local[b + 1] = attempts == 0 ? 0.0
                                     : static_cast<double>(failures) /
                                           static_cast<double>(attempts);
        local[b + 2] = static_cast<double>(src.sync->peakWaiters());
    }

    // Per-SM state: all SM-private and settled at the end of the cycle.
    // Cores are indexed by flat (device-major) position — SmCore::id()
    // is device-local and repeats across devices.
    std::uint64_t resident = 0, eligible = 0, spinning = 0, backed = 0;
    std::uint64_t mshr = 0, sib_occ = 0, confirms = 0, evicts = 0;
    for (std::size_t flat = 0; flat < src.cores->size(); ++flat) {
        const auto &core = (*src.cores)[flat];
        const std::size_t b = smColBase(static_cast<unsigned>(flat));
        const std::uint64_t r = core->residentWarps();
        const std::uint64_t e = core->eligibleWarpCount();
        const std::uint64_t sp = core->spinningWarpCount();
        const std::uint64_t bo = core->backoff().backedOffCount();
        const std::uint64_t m = core->ldst().mshrOccupancy();
        const std::uint64_t so = core->ddos().table().size();
        resident += r;
        eligible += e;
        spinning += sp;
        backed += bo;
        mshr += m;
        sib_occ += so;
        confirms += core->ddos().table().confirms();
        evicts += core->ddos().table().evicts();
        local[b + kSmWarpInstructions] =
            static_cast<double>(core->issuedInstructions());
        local[b + kSmResidentWarps] = static_cast<double>(r);
        local[b + kSmEligibleWarps] = static_cast<double>(e);
        local[b + kSmSpinningWarps] = static_cast<double>(sp);
        local[b + kSmBackedOffWarps] = static_cast<double>(bo);
        local[b + kSmDelayLimit] =
            static_cast<double>(core->backoff().delayLimit());
        local[b + kSmMshr] = static_cast<double>(m);
        local[b + kSmSibOccupancy] = static_cast<double>(so);
    }
    local[kResidentWarps] = static_cast<double>(resident);
    local[kEligibleWarps] = static_cast<double>(eligible);
    local[kSpinningWarps] = static_cast<double>(spinning);
    local[kBackedOffWarps] = static_cast<double>(backed);
    local[kMshrOccupancy] = static_cast<double>(mshr);
    local[kSibOccupancy] = static_cast<double>(sib_occ);
    local[kSibConfirms] = static_cast<double>(confirms);
    local[kSibEvicts] = static_cast<double>(evicts);
    return local;
}

void
MetricsSampler::emitRow(Cycle now, const std::vector<double> &local)
{
    const auto &cols = reg_.columns();
    std::vector<double> row(local.size(), 0.0);
    for (std::size_t c = 0; c < local.size(); ++c) {
        row[c] = cols[c].kind == Kind::Counter ? base_[c] + local[c]
                                               : local[c];
    }
    const Cycle global = cycleBase_ + now;
    row[kCycle] = static_cast<double>(global);
    row[kLaunch] = static_cast<double>(launchIndex_);
    const double cyc = static_cast<double>(global);
    row[kIpc] = cyc > 0.0 ? row[kWarpInstructions] / cyc : 0.0;
    for (unsigned sm = 0; sm < numCores_; ++sm) {
        const std::size_t b = smColBase(sm);
        row[b + kSmIpc] =
            cyc > 0.0 ? row[b + kSmWarpInstructions] / cyc : 0.0;
    }
    reg_.addRow(std::move(row));
    lastSampled_ = global;
    haveSampled_ = true;
}

void
MetricsSampler::sample(Cycle now, const SampleSources &src)
{
    emitRow(now, collectLocal(now, src));
    while (nextSampleGlobal_ <= cycleBase_ + now)
        nextSampleGlobal_ += interval_;
}

void
MetricsSampler::endLaunch(Cycle final_now, const SampleSources &src)
{
    const std::vector<double> local = collectLocal(final_now, src);
    // Boundary row: the final cycle of every launch is recorded even
    // when it falls off the sample grid, so the last row's counters
    // always match the launch's KernelStats (json_check --metrics).
    if (!haveSampled_ || lastSampled_ != cycleBase_ + final_now)
        emitRow(final_now, local);
    // Fold the launch's counters into the cross-launch bases so the
    // next launch's (launch-local, freshly zeroed) counters continue
    // the monotone series.
    const auto &cols = reg_.columns();
    for (std::size_t c = kIpc; c < local.size(); ++c) {
        if (cols[c].kind == Kind::Counter)
            base_[c] += local[c];
    }
    cycleBase_ += final_now;
    ++launchIndex_;
    while (nextSampleGlobal_ <= cycleBase_)
        nextSampleGlobal_ += interval_;
}

std::string
MetricsSampler::serialize() const
{
    const auto &cols = reg_.columns();
    const bool csv = path_.size() >= 4 &&
                     path_.compare(path_.size() - 4, 4, ".csv") == 0;
    if (csv) {
        std::string out;
        for (std::size_t c = 0; c < cols.size(); ++c) {
            if (c)
                out += ',';
            out += cols[c].name;
        }
        out += '\n';
        char buf[64];
        for (const auto &row : reg_.rows()) {
            for (std::size_t c = 0; c < row.size(); ++c) {
                if (c)
                    out += ',';
                if (cols[c].kind == Kind::Rate) {
                    std::snprintf(buf, sizeof buf, "%.17g", row[c]);
                } else {
                    std::snprintf(buf, sizeof buf, "%" PRId64,
                                  static_cast<std::int64_t>(row[c]));
                }
                out += buf;
            }
            out += '\n';
        }
        return out;
    }

    harness::Json doc = harness::Json::object();
    harness::Json kernels = harness::Json::array();
    for (const std::string &k : kernels_)
        kernels.push(k);
    doc.set("kernels", std::move(kernels));
    doc.set("interval", static_cast<std::uint64_t>(interval_));
    harness::Json columns = harness::Json::array();
    for (const MetricColumn &c : cols) {
        harness::Json col = harness::Json::object();
        col.set("name", c.name);
        col.set("kind", toString(c.kind));
        columns.push(std::move(col));
    }
    doc.set("columns", std::move(columns));
    harness::Json rows = harness::Json::array();
    for (const auto &row : reg_.rows()) {
        harness::Json r = harness::Json::array();
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (cols[c].kind == Kind::Rate)
                r.push(row[c]);
            else
                r.push(static_cast<std::int64_t>(row[c]));
        }
        rows.push(std::move(r));
    }
    doc.set("rows", std::move(rows));
    return doc.dump() + "\n";
}

void
MetricsSampler::writeFile() const
{
    if (path_.empty())
        return;
    std::ofstream out(path_);
    if (!out)
        fatal("cannot write metrics file '", path_, "'");
    out << serialize();
}

}  // namespace bowsim::metrics
