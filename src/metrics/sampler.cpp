#include "src/metrics/sampler.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "src/common/log.hpp"
#include "src/harness/json.hpp"
#include "src/sim/sm_core.hpp"
#include "src/stats/stats.hpp"
#include "src/syncprof/syncprof.hpp"

namespace bowsim::metrics {

const char *
toString(Kind kind)
{
    switch (kind) {
      case Kind::Counter: return "counter";
      case Kind::Gauge: return "gauge";
      case Kind::Rate: return "rate";
    }
    return "?";
}

/**
 * Where a column's value comes from. Readings from the stats fold or
 * an SM restart with every launch: a counter among them continues from
 * a base folded at each launch's end, and a rate among them (IPC) is
 * that accumulated count per simulated cycle of the series.
 */
enum class Source : std::uint8_t {
    /** The launch's stats fold. */
    Stats,
    /** An SM's own state; the aggregate block sums it over every SM. */
    Core,
    /** The sync profiler's running totals; present only with a profiler
     *  attached. */
    Sync,
    /** The sampler's launch index. */
    Launch,
};

using StatsRead = std::uint64_t (*)(const KernelStats &);
using CoreRead = std::uint64_t (*)(const SmCore &);
using SyncRead = double (*)(const syncprof::SyncProfileRegistry &);

struct ColumnDef {
    const char *name;
    Kind kind;
    Source source;
    /** The statsToJson key path of the counter a Source::Stats column
     *  mirrors, or nullptr. */
    const char *stat;
    StatsRead stats;
    CoreRead core;
    SyncRead sync;
    /** Present on multi-device schemas only, followed by one "d<N>."
     *  copy per device, so single-device schemas stay byte-identical to
     *  the pre-device-split layout. */
    bool perDevice;
};

namespace {

constexpr ColumnDef
fromStats(const char *name, const char *stat, StatsRead read,
          bool per_device = false)
{
    return {name, Kind::Counter, Source::Stats, stat, read, nullptr, nullptr,
            per_device};
}

constexpr ColumnDef
fromCore(const char *name, Kind kind, CoreRead read)
{
    return {name, kind, Source::Core, nullptr, nullptr, read, nullptr, false};
}

// Gauges and a rate, not counters: the registry outlives launches, so
// its totals are already absolute and must not be re-based at launch
// boundaries.
constexpr ColumnDef
fromSync(const char *name, Kind kind, SyncRead read)
{
    return {name, kind, Source::Sync, nullptr, nullptr, nullptr, read, false};
}

constexpr ColumnDef
perCycle(const char *name, StatsRead read)
{
    return {name, Kind::Rate, Source::Stats, nullptr, read, nullptr, nullptr,
            false};
}

constexpr ColumnDef
perCycle(const char *name, CoreRead read)
{
    return {name, Kind::Rate, Source::Core, nullptr, nullptr, read, nullptr,
            false};
}

// SM readings that more than one column reads.
constexpr CoreRead kIssued = [](const SmCore &c) {
    return c.issuedInstructions();
};
constexpr CoreRead kResidentWarps = [](const SmCore &c) -> std::uint64_t {
    return c.residentWarps();
};
constexpr CoreRead kEligibleWarps = [](const SmCore &c) -> std::uint64_t {
    return c.eligibleWarpCount();
};
constexpr CoreRead kSpinningWarps = [](const SmCore &c) -> std::uint64_t {
    return c.spinningWarpCount();
};
constexpr CoreRead kBackedOffWarps = [](const SmCore &c) -> std::uint64_t {
    return c.backoff().backedOffCount();
};
constexpr CoreRead kMshr = [](const SmCore &c) -> std::uint64_t {
    return c.ldst().mshrOccupancy();
};
constexpr CoreRead kSibOccupancy = [](const SmCore &c) -> std::uint64_t {
    return c.ddos().table().size();
};

/** The aggregate block, in column order; the cycle column comes first. */
constexpr ColumnDef kAggregate[] = {
    fromStats("cycle", "cycles", [](const KernelStats &s) { return s.cycles; }),
    {"launch", Kind::Counter, Source::Launch, nullptr, nullptr, nullptr,
     nullptr, false},
    perCycle("ipc", [](const KernelStats &s) { return s.warpInstructions; }),
    fromStats("warp_instructions", "warp_instructions",
              [](const KernelStats &s) { return s.warpInstructions; }),
    fromStats("thread_instructions", "thread_instructions",
              [](const KernelStats &s) { return s.threadInstructions; }),
    fromStats("l1_accesses", "mem.l1_accesses",
              [](const KernelStats &s) { return s.l1Accesses; }),
    fromStats("l1_misses", "mem.l1_misses",
              [](const KernelStats &s) { return s.l1Misses; }),
    fromStats("l2_accesses", "mem.l2_accesses",
              [](const KernelStats &s) { return s.mem.l2Accesses; }),
    fromStats("l2_misses", "mem.l2_misses",
              [](const KernelStats &s) { return s.mem.l2Misses; }),
    fromStats("dram_accesses", "mem.dram_accesses",
              [](const KernelStats &s) { return s.mem.dramAccesses; }),
    fromStats("dram_row_activations", "mem.dram_row_activations",
              [](const KernelStats &s) { return s.mem.dramRowActivations; }),
    fromStats("icnt_packets", "mem.icnt_packets",
              [](const KernelStats &s) { return s.mem.icntPackets; }),
    fromStats("atomics", "mem.atomics",
              [](const KernelStats &s) { return s.mem.atomics; }),
    fromStats("atomic_wait_cycles", "mem.atomic_wait_cycles",
              [](const KernelStats &s) { return s.mem.atomicWaitCycles; }),
    fromCore("sib_confirms", Kind::Counter,
             [](const SmCore &c) { return c.ddos().table().confirms(); }),
    fromCore("sib_evicts", Kind::Counter,
             [](const SmCore &c) { return c.ddos().table().evicts(); }),
    fromStats("lock_success", "outcomes.lock_success",
              [](const KernelStats &s) { return s.outcomes.lockSuccess; }),
    fromStats("inter_warp_fail", "outcomes.inter_warp_fail",
              [](const KernelStats &s) { return s.outcomes.interWarpFail; }),
    fromStats("intra_warp_fail", "outcomes.intra_warp_fail",
              [](const KernelStats &s) { return s.outcomes.intraWarpFail; }),
    fromStats("wait_exit_success", "outcomes.wait_exit_success",
              [](const KernelStats &s) { return s.outcomes.waitExitSuccess; }),
    fromStats("wait_exit_fail", "outcomes.wait_exit_fail",
              [](const KernelStats &s) { return s.outcomes.waitExitFail; }),
    fromStats("resident_warp_cycles", "sched.resident_warp_cycles",
              [](const KernelStats &s) { return s.residentWarpCycles; }),
    fromStats("backed_off_warp_cycles", "sched.backed_off_warp_cycles",
              [](const KernelStats &s) { return s.backedOffWarpCycles; }),
    fromStats("sm_cycles", "sched.sm_cycles",
              [](const KernelStats &s) { return s.smCycles; }),
    fromStats("delay_limit_cycle_sum", "sched.delay_limit_cycle_sum",
              [](const KernelStats &s) { return s.delayLimitCycleSum; }),
    fromCore("resident_warps", Kind::Gauge, kResidentWarps),
    fromCore("eligible_warps", Kind::Gauge, kEligibleWarps),
    fromCore("spinning_warps", Kind::Gauge, kSpinningWarps),
    fromCore("backed_off_warps", Kind::Gauge, kBackedOffWarps),
    fromCore("mshr_occupancy", Kind::Gauge, kMshr),
    fromCore("sib_occupancy", Kind::Gauge, kSibOccupancy),
    fromStats("link_packets", "mem.link_packets",
              [](const KernelStats &s) { return s.mem.linkPackets; }, true),
    fromSync("sync_contended_lines", Kind::Gauge,
             [](const syncprof::SyncProfileRegistry &r) {
                 return static_cast<double>(r.contendedLines());
             }),
    fromSync("sync_failed_cas_share", Kind::Rate,
             [](const syncprof::SyncProfileRegistry &r) {
                 return r.casAttempts() == 0
                            ? 0.0
                            : static_cast<double>(r.casFailures()) /
                                  static_cast<double>(r.casAttempts());
             }),
    fromSync("sync_peak_waiters", Kind::Gauge,
             [](const syncprof::SyncProfileRegistry &r) {
                 return static_cast<double>(r.peakWaiters());
             }),
};

/** The per-SM block, repeated for every SM in flat order. */
constexpr ColumnDef kPerSm[] = {
    fromCore("warp_instructions", Kind::Counter, kIssued),
    perCycle("ipc", kIssued),
    fromCore("resident_warps", Kind::Gauge, kResidentWarps),
    fromCore("eligible_warps", Kind::Gauge, kEligibleWarps),
    fromCore("spinning_warps", Kind::Gauge, kSpinningWarps),
    fromCore("backed_off_warps", Kind::Gauge, kBackedOffWarps),
    fromCore("delay_limit", Kind::Gauge,
             [](const SmCore &c) { return c.backoff().delayLimit(); }),
    fromCore("mshr", Kind::Gauge, kMshr),
    fromCore("sib_occupancy", Kind::Gauge, kSibOccupancy),
};

/** Column of the series' cycle, the denominator of every rate. */
constexpr std::size_t kCycleCol = 0;

/**
 * The column schema for @p num_cores SMs (system-wide) on
 * @p num_devices devices: the aggregate block, its link and sync
 * groups when present, then one per-SM block per SM, prefixed "smN."
 * or, on multi-device schemas, "dD.smN." with a device-local N.
 */
std::vector<MetricColumn>
schema(unsigned num_cores, unsigned num_devices, bool has_sync)
{
    std::vector<MetricColumn> cols;
    auto add = [&cols](std::string name, const ColumnDef &def, int device,
                       int sm) {
        cols.push_back({std::move(name), def.kind, def.stat, &def, device,
                        sm});
    };
    for (const ColumnDef &def : kAggregate) {
        if ((def.perDevice && num_devices < 2) ||
            (def.source == Source::Sync && !has_sync))
            continue;
        add(def.name, def, -1, -1);
        if (!def.perDevice)
            continue;
        for (unsigned d = 0; d < num_devices; ++d) {
            add("d" + std::to_string(d) + "." + def.name, def,
                static_cast<int>(d), -1);
        }
    }
    for (unsigned sm = 0; sm < num_cores; ++sm) {
        std::string p = "sm" + std::to_string(sm) + ".";
        if (num_devices > 1) {
            const unsigned per_device = num_cores / num_devices;
            p = "d" + std::to_string(sm / per_device) + ".sm" +
                std::to_string(sm % per_device) + ".";
        }
        for (const ColumnDef &def : kPerSm)
            add(p + def.name, def, -1, static_cast<int>(sm));
    }
    return cols;
}

/** Whether a column accumulates across launches (see Source). */
bool
rebased(const ColumnDef &def)
{
    return (def.source == Source::Stats || def.source == Source::Core) &&
           def.kind != Kind::Gauge;
}

}  // namespace

std::vector<MetricColumn>
statsMirrors(unsigned num_devices)
{
    std::vector<MetricColumn> out;
    for (MetricColumn &col : schema(0, num_devices, false)) {
        if (col.stat != nullptr)
            out.push_back(std::move(col));
    }
    return out;
}

MetricsSampler::MetricsSampler(Cycle interval, std::string path)
    : interval_(interval), path_(std::move(path))
{
    if (interval_ == 0)
        fatal("metrics sample interval must be >= 1");
    nextSampleGlobal_ = interval_;
}

void
MetricsSampler::beginLaunch(const std::string &kernel, unsigned num_cores,
                            unsigned num_devices, bool has_sync)
{
    if (num_devices == 0)
        num_devices = 1;
    if (columns_.empty()) {
        numCores_ = num_cores;
        numDevices_ = num_devices;
        hasSync_ = has_sync;
        columns_ = schema(num_cores, num_devices, has_sync);
        base_.assign(columns_.size(), 0.0);
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
MetricsSampler::read(const KernelStats &stats, const SampleSources &src) const
{
    // Cores are indexed by flat (device-major) position — SmCore::id()
    // is device-local and repeats across devices.
    const auto &cores = *src.cores;
    std::vector<double> local(columns_.size(), 0.0);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        const MetricColumn &col = columns_[c];
        const ColumnDef &def = *col.def;
        switch (def.source) {
          case Source::Stats:
            local[c] = static_cast<double>(def.stats(
                col.device < 0 ? stats : stats.perDevice[col.device]));
            break;
          case Source::Core: {
            std::uint64_t v = 0;
            if (col.sm >= 0) {
                v = def.core(*cores[col.sm]);
            } else {
                for (const auto &core : cores)
                    v += def.core(*core);
            }
            local[c] = static_cast<double>(v);
            break;
          }
          case Source::Sync:
            if (src.sync != nullptr)
                local[c] = def.sync(*src.sync);
            break;
          case Source::Launch:
            local[c] = static_cast<double>(launchIndex_);
            break;
        }
    }
    return local;
}

void
MetricsSampler::emitRow(const std::vector<double> &local)
{
    std::vector<double> row(local.size(), 0.0);
    const double cyc = base_[kCycleCol] + local[kCycleCol];
    for (std::size_t c = 0; c < local.size(); ++c) {
        const ColumnDef &def = *columns_[c].def;
        if (!rebased(def))
            row[c] = local[c];
        else if (def.kind == Kind::Rate)
            row[c] = cyc > 0.0 ? (base_[c] + local[c]) / cyc : 0.0;
        else
            row[c] = base_[c] + local[c];
    }
    lastSampled_ = static_cast<Cycle>(cyc);
    haveSampled_ = true;
    rows_.push_back(std::move(row));
}

void
MetricsSampler::sample(const KernelStats &stats, const SampleSources &src)
{
    emitRow(read(stats, src));
    while (nextSampleGlobal_ <= cycleBase_ + stats.cycles)
        nextSampleGlobal_ += interval_;
}

void
MetricsSampler::endLaunch(const KernelStats &stats, const SampleSources &src)
{
    const std::vector<double> local = read(stats, src);
    // Boundary row: the final cycle of every launch is recorded even
    // when it falls off the sample grid, so the last row's counters
    // always match the launch's KernelStats (json_check --metrics).
    if (!haveSampled_ || lastSampled_ != cycleBase_ + stats.cycles)
        emitRow(local);
    // Fold the launch's counters into the cross-launch bases so the
    // next launch's (launch-local, freshly zeroed) counters continue
    // the monotone series.
    for (std::size_t c = 0; c < local.size(); ++c) {
        if (rebased(*columns_[c].def))
            base_[c] += local[c];
    }
    cycleBase_ += stats.cycles;
    ++launchIndex_;
    while (nextSampleGlobal_ <= cycleBase_)
        nextSampleGlobal_ += interval_;
}

std::string
MetricsSampler::serialize() const
{
    const auto &cols = columns_;
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
        for (const auto &row : rows_) {
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
    for (const auto &row : rows_) {
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
