#include "src/harness/json_check.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/log.hpp"
#include "src/harness/litmus.hpp"
#include "src/harness/sweep.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sync/primitives.hpp"

namespace bowsim::harness {

namespace {

CheckResult
fail(std::string message)
{
    CheckResult r;
    r.ok = false;
    r.message = std::move(message);
    return r;
}

/**
 * The stats-shard rule sweep points and litmus cells share: a run on
 * @p devices > 1 devices carries exactly that many shard objects in
 * stats.devices, none of which nests a "devices" block of its own; a
 * one-device run carries none. Empty when @p stats obeys the rule,
 * else the failure, prefixed with @p where.
 */
std::string
shardViolation(const Json &stats, std::int64_t devices,
               const std::string &where)
{
    std::size_t shards = 0;
    if (stats.has("devices")) {
        if (stats.at("devices").type() != Json::Type::Array)
            return where + " stats \"devices\" is not an array";
        shards = stats.at("devices").size();
    }
    const std::size_t expected =
        devices > 1 ? static_cast<std::size_t>(devices) : 0;
    if (shards != expected)
        return where + " runs on " + std::to_string(devices) +
               " device(s) but carries " + std::to_string(shards) +
               " stats shard(s)";
    for (std::size_t d = 0; d < shards; ++d) {
        const Json &shard = stats.at("devices").at(d);
        if (shard.type() != Json::Type::Object)
            return where + " device shard " + std::to_string(d) +
                   " is not an object";
        if (shard.has("devices"))
            return where + " device shard " + std::to_string(d) +
                   " nests a \"devices\" block";
    }
    return {};
}

/**
 * The config-block rule sweep points and the litmus header share:
 * @p cfg is an object whose keys are exactly those configToJson writes
 * for its num_devices, and whose exec_mode names a known mode. Empty
 * when @p cfg obeys the rule, else the failure, naming the key and
 * prefixed with @p where.
 */
std::string
configViolation(const Json &cfg, const std::string &where)
{
    if (cfg.type() != Json::Type::Object)
        return where + " has no \"config\" object";
    GpuConfig probe;
    if (cfg.has("num_devices")) {
        if (!cfg.at("num_devices").isNumber() ||
            cfg.at("num_devices").asInt() < 1)
            return where + " config has a non-positive \"num_devices\"";
        probe.numDevices =
            static_cast<unsigned>(cfg.at("num_devices").asInt());
    }
    const Json record = configToJson(probe);
    for (const auto &[key, value] : record.members()) {
        if (!cfg.has(key))
            return where + " config lacks \"" + key + "\"";
    }
    for (const auto &[key, value] : cfg.members()) {
        if (!record.has(key))
            return where + " config carries \"" + key +
                   "\", which is not in the configuration record";
    }
    const Json &mode = cfg.at("exec_mode");
    ExecMode parsed = ExecMode::Cycle;
    if (mode.type() != Json::Type::String ||
        !parseExecMode(mode.asString(), &parsed))
        return where + " config has unknown exec_mode " + mode.dump();
    return {};
}

}  // namespace

Json
loadJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return Json::parse(buf.str());
}

CheckResult
checkSweepArtifact(const Json &doc, std::int64_t expected_points)
{
    if (!doc.has("points"))
        return fail("artifact has no \"points\" array");
    const Json &points = doc.at("points");
    if (points.type() != Json::Type::Array)
        return fail("\"points\" is not an array");
    if (expected_points >= 0 &&
        points.size() != static_cast<std::size_t>(expected_points)) {
        std::ostringstream os;
        os << "artifact has " << points.size() << " points, expected "
           << expected_points;
        return fail(os.str());
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Json &p = points.at(i);
        const std::string where = "point " + std::to_string(i);
        if (!p.has("config"))
            return fail(where + " has no \"config\" object");
        const std::string cfg_err = configViolation(p.at("config"), where);
        if (!cfg_err.empty())
            return fail(cfg_err);
        if (p.has("stats")) {
            // No mode emits the IPC-estimator fields ipc_est, ipc_ci95
            // or sampled_windows, so a point carrying one does not
            // follow this schema.
            const Json &stats = p.at("stats");
            if (stats.has("ipc_est") || stats.has("ipc_ci95") ||
                stats.has("sampled_windows")) {
                return fail(where + " carries IPC-estimator fields");
            }
            const std::string err = shardViolation(
                stats, p.at("config").at("num_devices").asInt(), where);
            if (!err.empty())
                return fail(err);
        }
        if (!p.has("ok") || !p.at("ok").asBool()) {
            std::ostringstream os;
            os << "point " << (p.has("id") ? p.at("id").asString()
                                           : std::to_string(i))
               << " failed";
            if (p.has("error"))
                os << ": " << p.at("error").asString();
            return fail(os.str());
        }
    }
    std::ostringstream os;
    os << "OK (bench="
       << (doc.has("bench") ? doc.at("bench").asString() : "?") << ", "
       << points.size() << " points)";
    CheckResult r;
    r.message = os.str();
    return r;
}

CheckResult
checkChromeTrace(const Json &doc)
{
    if (!doc.has("traceEvents"))
        return fail("trace has no \"traceEvents\" array");
    const Json &events = doc.at("traceEvents");
    if (events.type() != Json::Type::Array)
        return fail("\"traceEvents\" is not an array");

    // Per-(pid, tid) track state: last timestamp and open B/E depth.
    std::map<std::pair<std::int64_t, std::int64_t>,
             std::pair<std::int64_t, std::int64_t>>
        tracks;
    std::size_t timed = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &ev = events.at(i);
        if (ev.type() != Json::Type::Object)
            return fail("event " + std::to_string(i) + " is not an object");
        if (!ev.has("ph"))
            return fail("event " + std::to_string(i) + " has no phase");
        const std::string &ph = ev.at("ph").asString();
        if (ph == "M")
            continue;  // metadata events carry no timestamp
        if (!ev.has("ts") || !ev.at("ts").isNumber())
            return fail("event " + std::to_string(i) +
                        " has no numeric \"ts\"");
        if (!ev.has("pid") || !ev.has("tid"))
            return fail("event " + std::to_string(i) + " has no pid/tid");
        ++timed;
        const std::int64_t ts = ev.at("ts").asInt();
        auto key = std::make_pair(ev.at("pid").asInt(),
                                  ev.at("tid").asInt());
        auto [it, fresh] = tracks.emplace(key, std::make_pair(ts, 0));
        auto &[last_ts, depth] = it->second;
        if (!fresh && ts < last_ts) {
            std::ostringstream os;
            os << "event " << i << ": ts " << ts
               << " goes backwards on track pid=" << key.first
               << " tid=" << key.second << " (last " << last_ts << ")";
            return fail(os.str());
        }
        last_ts = ts;
        if (ph == "B") {
            ++depth;
        } else if (ph == "E") {
            if (depth == 0) {
                std::ostringstream os;
                os << "event " << i << ": unmatched \"E\" on track pid="
                   << key.first << " tid=" << key.second;
                return fail(os.str());
            }
            --depth;
        }
    }
    for (const auto &[key, state] : tracks) {
        if (state.second != 0) {
            std::ostringstream os;
            os << state.second << " unclosed \"B\" interval(s) on track pid="
               << key.first << " tid=" << key.second;
            return fail(os.str());
        }
    }
    std::ostringstream os;
    os << "OK (" << timed << " timed events on " << tracks.size()
       << " tracks)";
    CheckResult r;
    r.message = os.str();
    return r;
}

CheckResult
checkMetricsSeries(const Json &doc, const Json *stats)
{
    if (!doc.has("interval") || !doc.at("interval").isNumber())
        return fail("metrics document has no numeric \"interval\"");
    const std::int64_t interval = doc.at("interval").asInt();
    if (interval <= 0)
        return fail("metrics interval must be positive");
    if (!doc.has("columns") ||
        doc.at("columns").type() != Json::Type::Array)
        return fail("metrics document has no \"columns\" array");
    if (!doc.has("rows") || doc.at("rows").type() != Json::Type::Array)
        return fail("metrics document has no \"rows\" array");

    const Json &columns = doc.at("columns");
    std::map<std::string, std::size_t> colIndex;
    std::vector<bool> isCounter(columns.size(), false);
    for (std::size_t c = 0; c < columns.size(); ++c) {
        const Json &col = columns.at(c);
        if (col.type() != Json::Type::Object || !col.has("name") ||
            !col.has("kind")) {
            return fail("column " + std::to_string(c) +
                        " lacks name/kind");
        }
        const std::string &kind = col.at("kind").asString();
        if (kind != "counter" && kind != "gauge" && kind != "rate")
            return fail("column " + std::to_string(c) +
                        " has unknown kind \"" + kind + "\"");
        isCounter[c] = kind == "counter";
        colIndex.emplace(col.at("name").asString(), c);
    }
    auto required = [&](const char *name) {
        return colIndex.count(name) != 0;
    };
    if (!required("cycle") || !required("launch"))
        return fail("metrics schema lacks cycle/launch columns");
    const std::size_t cycleCol = colIndex.at("cycle");
    const std::size_t launchCol = colIndex.at("launch");

    const Json &rows = doc.at("rows");
    std::int64_t prevCycle = -1;
    std::int64_t prevLaunch = 0;
    std::int64_t prevGridCycle = -1;
    std::vector<std::int64_t> prevRow(columns.size(), 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Json &row = rows.at(i);
        if (row.type() != Json::Type::Array ||
            row.size() != columns.size()) {
            return fail("row " + std::to_string(i) +
                        " does not match the column schema");
        }
        const std::int64_t cycle = row.at(cycleCol).asInt();
        const std::int64_t launch = row.at(launchCol).asInt();
        if (cycle <= prevCycle) {
            return fail("row " + std::to_string(i) + ": cycle " +
                        std::to_string(cycle) +
                        " not strictly increasing (previous " +
                        std::to_string(prevCycle) + ")");
        }
        if (launch < prevLaunch) {
            return fail("row " + std::to_string(i) +
                        ": launch index went backwards");
        }
        const bool onGrid = cycle % interval == 0;
        if (!onGrid) {
            // Off-grid rows are only legal as launch boundaries: the
            // launch index must advance on the next row, or this must
            // be the final row of the series.
            const bool last = i + 1 == rows.size();
            const bool boundary =
                last || rows.at(i + 1).at(launchCol).asInt() > launch;
            if (!boundary) {
                return fail("row " + std::to_string(i) + ": cycle " +
                            std::to_string(cycle) +
                            " is off the sample grid and not a launch "
                            "boundary");
            }
        } else if (prevGridCycle >= 0 &&
                   cycle - prevGridCycle != interval) {
            return fail("row " + std::to_string(i) +
                        ": grid samples " + std::to_string(prevGridCycle) +
                        " -> " + std::to_string(cycle) +
                        " are not one interval apart");
        }
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (!isCounter[c])
                continue;
            const std::int64_t v = row.at(c).asInt();
            if (i > 0 && v < prevRow[c]) {
                return fail("row " + std::to_string(i) + ": counter \"" +
                            columns.at(c).at("name").asString() +
                            "\" decreased (" + std::to_string(prevRow[c]) +
                            " -> " + std::to_string(v) + ")");
            }
            prevRow[c] = v;
        }
        prevCycle = cycle;
        prevLaunch = launch;
        if (onGrid)
            prevGridCycle = cycle;
    }

    std::size_t checked = 0;
    if (stats != nullptr) {
        if (rows.size() == 0)
            return fail("metrics series has no rows to check against "
                        "KernelStats");
        const Json &final_row = rows.at(rows.size() - 1);
        // Every column the sampler says mirrors a stats counter, for a
        // run on as many devices as the record has shards. Like the
        // series' cross-launch cycle column, KernelStats::operator+=
        // sums cycles across launches, so multi-launch runs compare too.
        unsigned num_devices = 1;
        if (stats->has("devices") && stats->at("devices").size() > 1)
            num_devices = static_cast<unsigned>(stats->at("devices").size());
        for (const metrics::MetricColumn &m :
             metrics::statsMirrors(num_devices)) {
            if (!colIndex.count(m.name))
                return fail("metrics schema lacks \"" + m.name + "\"");
            const Json *record = stats;
            std::string where = "stats";
            if (m.device >= 0) {
                record = &stats->at("devices").at(
                    static_cast<std::size_t>(m.device));
                where += ".devices[" + std::to_string(m.device) + "]";
            }
            // Walk the key path. statsToJson leaves out a zero
            // link_packets, so a counter the record omits reads as 0.
            const std::string stat = m.stat;
            std::size_t from = 0;
            std::size_t dot;
            while ((dot = stat.find('.', from)) != std::string::npos) {
                const std::string key = stat.substr(from, dot - from);
                if (!record->has(key))
                    return fail(where + " lacks \"" + key + "\"");
                record = &record->at(key);
                where += "." + key;
                from = dot + 1;
            }
            const std::string leaf = stat.substr(from);
            where += "." + leaf;
            const std::int64_t want =
                record->has(leaf) ? record->at(leaf).asInt() : 0;
            const std::int64_t got =
                final_row.at(colIndex.at(m.name)).asInt();
            if (got != want) {
                std::ostringstream os;
                os << "final row \"" << m.name << "\" = " << got
                   << " disagrees with " << where << " = " << want;
                return fail(os.str());
            }
            ++checked;
        }
    }

    std::ostringstream os;
    os << "OK (" << rows.size() << " rows, " << columns.size()
       << " columns, interval " << interval;
    if (stats != nullptr)
        os << ", " << checked << " totals matched against stats";
    os << ")";
    CheckResult r;
    r.message = os.str();
    return r;
}

CheckResult
checkLitmusMatrix(const Json &doc, std::int64_t expected_cells)
{
    // --- document header ---------------------------------------------
    for (const char *k : {"bench", "config", "threads_per_cta", "iters"}) {
        if (!doc.has(k))
            return fail(std::string("litmus document lacks \"") + k +
                        "\"");
    }
    const std::string cfg_err =
        configViolation(doc.at("config"), "litmus header");
    if (!cfg_err.empty())
        return fail(cfg_err);
    const std::string &mode = doc.at("config").at("exec_mode").asString();
    if (doc.at("config").at("watchdog_cycles").asInt() <= 0)
        return fail("watchdog_cycles must be positive");

    // --- axis lists ---------------------------------------------------
    for (const char *k : {"primitives", "schedulers", "bows",
                          "occupancies", "devices", "cells"}) {
        if (!doc.has(k) || doc.at(k).type() != Json::Type::Array)
            return fail(std::string("litmus document lacks \"") + k +
                        "\" array");
        if (std::string(k) != "cells" && doc.at(k).size() == 0)
            return fail(std::string("axis \"") + k + "\" is empty");
    }
    const Json &prims = doc.at("primitives");
    for (std::size_t i = 0; i < prims.size(); ++i) {
        sync::Primitive p;
        if (!sync::parsePrimitive(prims.at(i).asString(), &p))
            return fail("unknown primitive \"" + prims.at(i).asString() +
                        "\"");
    }
    const Json &occs = doc.at("occupancies");
    for (std::size_t i = 0; i < occs.size(); ++i) {
        OccupancyLevel level;
        if (!parseOccupancy(occs.at(i).asString(), &level))
            return fail("unknown occupancy \"" + occs.at(i).asString() +
                        "\"");
    }
    const Json &scheds = doc.at("schedulers");
    const Json &bows = doc.at("bows");
    const Json &devs = doc.at("devices");
    for (std::size_t i = 0; i < devs.size(); ++i) {
        if (devs.at(i).asInt() <= 0)
            return fail("devices axis entries must be positive");
    }

    // --- cells: schema, legality, and exact axis coverage -------------
    const Json &cells = doc.at("cells");
    const std::size_t expected_product = prims.size() * scheds.size() *
                                         bows.size() * occs.size() *
                                         devs.size();
    if (expected_cells >= 0 &&
        cells.size() != static_cast<std::size_t>(expected_cells)) {
        std::ostringstream os;
        os << "matrix has " << cells.size() << " cells, expected "
           << expected_cells;
        return fail(os.str());
    }
    if (cells.size() != expected_product) {
        std::ostringstream os;
        os << "matrix has " << cells.size()
           << " cells but the axis lists span " << expected_product;
        return fail(os.str());
    }
    std::map<std::string, int> seen;
    std::map<std::string, std::size_t> outcome_counts;
    std::size_t evidence_cells = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Json &c = cells.at(i);
        const std::string where = "cell " + std::to_string(i);
        for (const char *k : {"id", "primitive", "scheduler", "bows",
                              "occupancy", "devices", "ctas",
                              "warps_per_cta", "iters", "outcome",
                              "stats"}) {
            if (!c.has(k))
                return fail(where + " lacks \"" + k + "\"");
        }
        SyncOutcome outcome;
        if (!parseSyncOutcome(c.at("outcome").asString(), &outcome))
            return fail(where + " has illegal outcome \"" +
                        c.at("outcome").asString() + "\"");
        ++outcome_counts[c.at("outcome").asString()];
        if (c.at("ctas").asInt() <= 0 ||
            c.at("warps_per_cta").asInt() <= 0 ||
            c.at("iters").asInt() <= 0 || c.at("devices").asInt() <= 0)
            return fail(where + " has non-positive geometry");
        if (c.at("stats").type() != Json::Type::Object)
            return fail(where + " \"stats\" is not an object");
        // Every outcome keeps its shards: abort records are folded like
        // finished launches, in both execution modes.
        const std::string shard_err =
            shardViolation(c.at("stats"), c.at("devices").asInt(), where);
        if (!shard_err.empty())
            return fail(shard_err);
        // Contention evidence (docs/SYNC.md): livelocked cycle-mode
        // cells must carry a machine-checked attribution of the
        // contended address; other cells may.
        const bool livelocked =
            c.at("outcome").asString() == "livelocked";
        if (mode == "cycle" && livelocked && !c.has("evidence"))
            return fail(where + " is livelocked but carries no "
                        "\"evidence\" block");
        if (c.has("evidence")) {
            const Json &ev = c.at("evidence");
            if (ev.type() != Json::Type::Object)
                return fail(where + " \"evidence\" is not an object");
            for (const char *k : {"addr", "cas_attempts",
                                  "cas_failures", "failed_share",
                                  "peak_waiters", "storms"}) {
                if (!ev.has(k))
                    return fail(where + " evidence lacks \"" + k +
                                "\"");
            }
            if (ev.at("addr").asString().compare(0, 2, "0x") != 0)
                return fail(where + " evidence addr is not hex");
            if (ev.at("cas_failures").asInt() >
                ev.at("cas_attempts").asInt())
                return fail(where + " evidence has more CAS failures "
                            "than attempts");
            const double share = ev.at("failed_share").asDouble();
            if (share < 0.0 || share > 1.0)
                return fail(where + " evidence failed_share is "
                            "outside [0, 1]");
            if (ev.at("peak_waiters").asInt() < 0 ||
                ev.at("storms").asInt() < 0)
                return fail(where + " evidence counters are negative");
            ++evidence_cells;
        }
        std::string key =
            c.at("primitive").asString() + "/" +
            c.at("scheduler").asString() + "/" +
            (c.at("bows").asBool() ? "bows" : "base") + "/" +
            c.at("occupancy").asString() + "/d" +
            std::to_string(c.at("devices").asInt());
        if (++seen[key] > 1)
            return fail("duplicate cell " + key);
    }
    for (std::size_t pi = 0; pi < prims.size(); ++pi)
        for (std::size_t si = 0; si < scheds.size(); ++si)
            for (std::size_t bi = 0; bi < bows.size(); ++bi)
                for (std::size_t oi = 0; oi < occs.size(); ++oi)
                    for (std::size_t di = 0; di < devs.size(); ++di) {
                        std::string key =
                            prims.at(pi).asString() + "/" +
                            scheds.at(si).asString() + "/" +
                            (bows.at(bi).asBool() ? "bows" : "base") +
                            "/" + occs.at(oi).asString() + "/d" +
                            std::to_string(devs.at(di).asInt());
                        if (seen.find(key) == seen.end())
                            return fail("matrix is missing cell " +
                                        key);
                    }

    std::ostringstream os;
    os << "OK (litmus, " << cells.size() << " cells";
    for (const auto &[name, count] : outcome_counts)
        os << ", " << count << " " << name;
    if (evidence_cells != 0)
        os << ", " << evidence_cells << " with contention evidence";
    os << ")";
    CheckResult r;
    r.message = os.str();
    return r;
}

namespace {

/** Shared by the totals block and each per-address entry. */
CheckResult
checkSyncCounters(const Json &obj, const std::string &where)
{
    for (const char *k : {"atomics", "cas_attempts", "cas_failures",
                          "failed_share", "acquires", "releases",
                          "timed_atomics", "local_atomics",
                          "remote_atomics", "wait_cycles",
                          "peak_waiters", "backoff_enters",
                          "sib_confirms"}) {
        if (!obj.has(k) || !obj.at(k).isNumber())
            return fail(where + " lacks numeric \"" + k + "\"");
        if (obj.at(k).asDouble() < 0)
            return fail(where + " \"" + k + "\" is negative");
    }
    const std::int64_t atomics = obj.at("atomics").asInt();
    const std::int64_t attempts = obj.at("cas_attempts").asInt();
    const std::int64_t failures = obj.at("cas_failures").asInt();
    if (failures > attempts)
        return fail(where + " has more CAS failures than attempts");
    if (attempts > atomics)
        return fail(where + " has more CAS attempts than atomics");
    const double share = obj.at("failed_share").asDouble();
    if (share < 0.0 || share > 1.0)
        return fail(where + " failed_share is outside [0, 1]");
    if (obj.at("local_atomics").asInt() +
            obj.at("remote_atomics").asInt() !=
        obj.at("timed_atomics").asInt())
        return fail(where + " local + remote atomics do not fold to "
                    "timed_atomics");
    return CheckResult{};
}

/** A log2 latency histogram: <= 32 non-negative integer buckets. */
CheckResult
checkSyncHistogram(const Json &arr, const std::string &where)
{
    if (arr.type() != Json::Type::Array)
        return fail(where + " is not an array");
    if (arr.size() > 32)
        return fail(where + " has more than 32 buckets");
    for (std::size_t i = 0; i < arr.size(); ++i) {
        if (!arr.at(i).isNumber() || arr.at(i).asInt() < 0)
            return fail(where + " bucket " + std::to_string(i) +
                        " is not a non-negative integer");
    }
    return CheckResult{};
}

}  // namespace

CheckResult
checkSyncReport(const Json &doc)
{
    // --- header -------------------------------------------------------
    for (const char *k : {"version", "top_n", "storm_window", "totals",
                          "addresses"}) {
        if (!doc.has(k))
            return fail(std::string("sync report lacks \"") + k + "\"");
    }
    if (doc.at("version").asInt() != 1)
        return fail("unsupported sync report version");
    const std::int64_t top_n = doc.at("top_n").asInt();
    if (top_n <= 0 || doc.at("storm_window").asInt() <= 0)
        return fail("top_n and storm_window must be positive");

    // --- totals -------------------------------------------------------
    const Json &totals = doc.at("totals");
    if (totals.type() != Json::Type::Object)
        return fail("\"totals\" is not an object");
    for (const char *k : {"tracked_addresses", "contended_lines",
                          "storms"}) {
        if (!totals.has(k) || !totals.at(k).isNumber() ||
            totals.at(k).asInt() < 0)
            return fail(std::string("totals lacks non-negative \"") + k +
                        "\"");
    }
    CheckResult r = checkSyncCounters(totals, "totals");
    if (!r.ok)
        return r;
    if (totals.at("contended_lines").asInt() >
        totals.at("tracked_addresses").asInt())
        return fail("more contended lines than tracked addresses");

    // --- addresses: schema and hottest-first order --------------------
    const Json &addrs = doc.at("addresses");
    if (addrs.type() != Json::Type::Array)
        return fail("\"addresses\" is not an array");
    if (addrs.size() > static_cast<std::size_t>(top_n))
        return fail("addresses array exceeds top_n");
    std::int64_t prev_failures = -1;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const Json &a = addrs.at(i);
        const std::string where = "address " + std::to_string(i);
        for (const char *k : {"addr", "line"}) {
            if (!a.has(k) ||
                a.at(k).asString().compare(0, 2, "0x") != 0)
                return fail(where + " lacks hex \"" + k + "\"");
        }
        r = checkSyncCounters(a, where);
        if (!r.ok)
            return r;
        for (const char *k :
             {"acquire_latency", "hold_cycles", "handoff_cycles"}) {
            if (!a.has(k))
                return fail(where + " lacks \"" + k + "\"");
            r = checkSyncHistogram(a.at(k), where + " " + k);
            if (!r.ok)
                return r;
        }
        if (!a.has("fairness") ||
            a.at("fairness").type() != Json::Type::Object)
            return fail(where + " lacks a \"fairness\" object");
        const Json &f = a.at("fairness");
        for (const char *k : {"warps", "max", "mean", "gini"}) {
            if (!f.has(k) || !f.at(k).isNumber())
                return fail(where + " fairness lacks numeric \"" + k +
                            "\"");
        }
        const double gini = f.at("gini").asDouble();
        if (gini < 0.0 || gini > 1.0)
            return fail(where + " fairness gini is outside [0, 1]");
        if (!a.has("storm_count") || !a.has("storms") ||
            a.at("storms").type() != Json::Type::Array)
            return fail(where + " lacks storm fields");
        const Json &storms = a.at("storms");
        for (std::size_t s = 0; s < storms.size(); ++s) {
            const Json &iv = storms.at(s);
            if (!iv.has("from") || !iv.has("to") ||
                iv.at("from").asInt() < 0 ||
                iv.at("from").asInt() > iv.at("to").asInt())
                return fail(where + " storm " + std::to_string(s) +
                            " has an illegal interval");
        }
        const std::int64_t failures = a.at("cas_failures").asInt();
        if (prev_failures >= 0 && failures > prev_failures)
            return fail("addresses are not sorted hottest-first at "
                        "entry " +
                        std::to_string(i));
        prev_failures = failures;
    }

    std::ostringstream os;
    os << "OK (sync-report, " << addrs.size() << " addresses, "
       << totals.at("cas_attempts").asInt() << " CAS attempts, "
       << totals.at("cas_failures").asInt() << " failed)";
    r = CheckResult{};
    r.message = os.str();
    return r;
}

}  // namespace bowsim::harness
