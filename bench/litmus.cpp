/**
 * Synchronization litmus matrix (docs/SYNC.md): every generated
 * primitive under every (scheduler x BOWS x occupancy) combination,
 * classified as completed / livelocked / deadlocked / watchdog_killed.
 *
 * Beyond the shared bench flags, the matrix can be cut down for smoke
 * runs:
 *
 *   --primitives=tas,ticket,...   subset of tas,backoff,ticket,array,
 *                                 barrier,system-barrier (default: all)
 *   --schedulers=LRR,GTO,CAWA,TwoLevel  subset (default: all four)
 *   --occupancies=under,exact,over  subset (default: all three)
 *   --bows=base|bows|both         BOWS axis (default: both)
 *   --devices=1,2                 device-count axis (default: 1,2)
 *   --iters=N                     rounds per warp / barrier rounds
 *   --watchdog=N                  watchdog budget in cycles (positive)
 *   --atomic-service=N            L2 atomic service period in cycles
 *
 * A list flag with no value (--devices=) is a usage error (exit 2).
 * --scale multiplies the round count like every other bench. The JSON
 * artifact (--json) is the litmus outcome-matrix document validated by
 * json_check --litmus. Its header records the base configuration once,
 * without the execution knobs (--jobs, --no-skip), so artifacts are
 * byte-identical across them.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/harness/litmus.hpp"

using namespace bowsim;
using namespace bowsim::bench;
using harness::LitmusCell;
using harness::LitmusCellResult;
using harness::LitmusOptions;
using harness::OccupancyLevel;
using harness::SyncOutcome;

namespace {

/** The comma-separated items of @p flag's value @p text; an empty list
 *  is a usage error (exit 2), since every matrix axis needs a value. */
std::vector<std::string>
splitList(const char *flag, const char *text)
{
    std::vector<std::string> out;
    std::string item;
    for (const char *c = text; *c != '\0'; ++c) {
        if (*c == ',') {
            if (!item.empty())
                out.push_back(item);
            item.clear();
        } else {
            item += *c;
        }
    }
    if (!item.empty())
        out.push_back(item);
    if (out.empty()) {
        std::fprintf(stderr, "error: %s needs at least one value\n", flag);
        std::exit(2);
    }
    return out;
}

bool
parseScheduler(const std::string &text, SchedulerKind *out)
{
    static const SchedulerKind all[] = {
        SchedulerKind::LRR,
        SchedulerKind::GTO,
        SchedulerKind::CAWA,
        SchedulerKind::TwoLevel,
    };
    for (SchedulerKind kind : all) {
        if (text == toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

[[noreturn]] void
badFlag(const char *flag, const std::string &value)
{
    std::fprintf(stderr, "error: bad %s value '%s'\n", flag,
                 value.c_str());
    std::exit(2);
}

}  // namespace

int
main(int argc, char **argv)
{
    // The matrix flags are read here and the rest go to parseOptions;
    // --devices is a list here, not the shared single count.
    LitmusOptions lo = harness::defaultLitmusOptions();
    std::vector<char *> shared = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--primitives=", 13) == 0) {
            lo.primitives.clear();
            for (const std::string &name :
                 splitList("--primitives", argv[i] + 13)) {
                sync::Primitive p;
                if (!sync::parsePrimitive(name, &p))
                    badFlag("--primitives", name);
                lo.primitives.push_back(p);
            }
        } else if (std::strncmp(argv[i], "--schedulers=", 13) == 0) {
            lo.schedulers.clear();
            for (const std::string &name :
                 splitList("--schedulers", argv[i] + 13)) {
                SchedulerKind kind;
                if (!parseScheduler(name, &kind))
                    badFlag("--schedulers", name);
                lo.schedulers.push_back(kind);
            }
        } else if (std::strncmp(argv[i], "--occupancies=", 14) == 0) {
            lo.occupancies.clear();
            for (const std::string &name :
                 splitList("--occupancies", argv[i] + 14)) {
                OccupancyLevel level;
                if (!harness::parseOccupancy(name, &level))
                    badFlag("--occupancies", name);
                lo.occupancies.push_back(level);
            }
        } else if (std::strncmp(argv[i], "--devices=", 10) == 0) {
            lo.devices.clear();
            for (const std::string &name :
                 splitList("--devices", argv[i] + 10)) {
                lo.devices.push_back(static_cast<unsigned>(
                    parseWhole("--devices", name.c_str(), 1)));
            }
        } else if (std::strncmp(argv[i], "--bows=", 7) == 0) {
            const std::string value = argv[i] + 7;
            if (value == "base")
                lo.bowsModes = {false};
            else if (value == "bows")
                lo.bowsModes = {true};
            else if (value == "both")
                lo.bowsModes = {false, true};
            else
                badFlag("--bows", value);
        } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
            lo.iters =
                static_cast<unsigned>(parseWhole("--iters", argv[i] + 8, 1));
        } else if (std::strncmp(argv[i], "--watchdog=", 11) == 0) {
            lo.base.watchdogCycles =
                parseWhole("--watchdog", argv[i] + 11, 1, kNeverCycle);
        } else if (std::strncmp(argv[i], "--atomic-service=", 17) == 0) {
            lo.base.atomicServicePeriod = static_cast<unsigned>(
                parseWhole("--atomic-service", argv[i] + 17));
        } else {
            shared.push_back(argv[i]);
        }
    }
    const BenchOptions opts =
        parseOptions(static_cast<int>(shared.size()), shared.data());
    // The shared knobs that change *what* is simulated are applied to
    // the base config before cells are built, so the artifact records
    // them; execution-only knobs (--no-skip, --jobs) are left to
    // runSweep and never reach the artifact.
    applyCores(opts, lo.base);
    if (opts.hasExecMode)
        lo.base.execMode = opts.execMode;
    lo.iters = std::max(
        1u, static_cast<unsigned>(std::lround(lo.iters * opts.scale)));

    const std::vector<LitmusCell> cells = harness::buildLitmusCells(lo);
    std::vector<LitmusCellResult> results(cells.size());

    Sweep sweep;
    sweep.name = "litmus";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        // Each closure writes its own exclusive results slot; the
        // runner's workers never share one.
        sweep.add(cells[i].id, cells[i].cfg,
                  std::function<KernelStats(Gpu &)>(
                      [&cells, &results, i](Gpu &gpu) {
                          results[i] =
                              harness::runLitmusCell(cells[i], gpu);
                          return results[i].stats;
                      }));
    }
    // runSweep would emit the generic sweep artifact; the litmus
    // document replaces it, so keep the path for ourselves. --devices
    // is a matrix axis here, not a per-point override: each cell's
    // device count is already baked into its config.
    BenchOptions run_opts = opts;
    run_opts.jsonPath.clear();
    run_opts.devices = 0;
    runSweep(run_opts, sweep);

    if (!opts.jsonPath.empty()) {
        std::ofstream out(opts.jsonPath);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.jsonPath.c_str());
            return 1;
        }
        out << harness::litmusToJson("litmus", lo, cells, results).dump()
            << "\n";
    }

    printHeader("litmus: sync-primitive outcome matrix");
    std::printf("cell");
    for (SchedulerKind sched : lo.schedulers)
        for (bool bows : lo.bowsModes)
            std::printf("\t%s/%s", toString(sched),
                        bows ? "bows" : "base");
    std::printf("\n");
    std::map<std::string, const LitmusCellResult *> by_id;
    for (std::size_t i = 0; i < cells.size(); ++i)
        by_id[cells[i].id] = &results[i];
    std::map<std::string, unsigned> totals;
    for (sync::Primitive p : lo.primitives) {
        for (OccupancyLevel level : lo.occupancies) {
            for (unsigned dev : lo.devices) {
                std::printf("%s/%s/d%u", sync::toString(p),
                            harness::toString(level), dev);
                for (SchedulerKind sched : lo.schedulers) {
                    for (bool bows : lo.bowsModes) {
                        std::string id =
                            std::string(sync::toString(p)) + "/" +
                            toString(sched) + "/" +
                            (bows ? "bows" : "base") + "/" +
                            harness::toString(level) + "/d" +
                            std::to_string(dev);
                        const LitmusCellResult *r = by_id.at(id);
                        std::printf("\t%s",
                                    harness::toString(r->outcome));
                        ++totals[harness::toString(r->outcome)];
                    }
                }
                std::printf("\n");
            }
        }
    }
    std::printf("#");
    for (const auto &[name, count] : totals)
        std::printf(" %s=%u", name.c_str(), count);
    std::printf("\n");
    return 0;
}
