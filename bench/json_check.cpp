/**
 * Validates bench artifacts (used by the bench_smoke ctest targets):
 *
 *   json_check FILE [EXPECTED_POINT_COUNT [EXPECTED_CACHE_HITS]]
 *                                             sweep artifact (--json);
 *                                             the third argument asserts
 *                                             the cache block reports
 *                                             exactly that many hits
 *                                             (CI warm-run gate)
 *   json_check --compare-points A B           two sweep artifacts whose
 *                                             "points" arrays must be
 *                                             byte-identical (cache
 *                                             determinism gate; only the
 *                                             "cache" blocks may differ)
 *   json_check --trace FILE                   Chrome trace_event document
 *   json_check --metrics FILE [SWEEP POINT]   metrics time series; with a
 *                                             sweep artifact and point id,
 *                                             cross-checks the final row
 *                                             against that point's stats
 *   json_check --litmus FILE [EXPECTED_CELLS] litmus outcome matrix
 *                                             (docs/SYNC.md)
 *   json_check --sync-report FILE             sync-contention report
 *                                             (--sync-report, docs/SYNC.md)
 *
 * Each count is a whole decimal number; anything else is a usage error
 * (exit 2), checked before the file is read. Sweep artifacts must
 * parse, carry a "points" array of the expected size (when a count is
 * given), and every point must report ok == true.
 * Trace documents get the structural/property checks of
 * harness::checkChromeTrace (monotone per-track timestamps, balanced
 * B/E intervals). Metrics series get harness::checkMetricsSeries
 * (monotone cycles, grid-aligned samples, non-decreasing counters,
 * final-row/KernelStats consistency). The validation logic lives in
 * src/harness/json_check so the unit tests exercise exactly what this
 * tool runs.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "bench/bench_common.hpp"
#include "src/common/log.hpp"
#include "src/harness/json_check.hpp"

using bowsim::bench::parseWhole;
using bowsim::harness::CheckResult;
using bowsim::harness::Json;

namespace {

int
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s FILE [EXPECTED_POINT_COUNT "
                 "[EXPECTED_CACHE_HITS]]\n"
                 "       %s --compare-points A B\n"
                 "       %s --trace FILE\n"
                 "       %s --metrics FILE [SWEEP_JSON POINT_ID]\n"
                 "       %s --litmus FILE [EXPECTED_CELLS]\n"
                 "       %s --sync-report FILE\n",
                 prog, prog, prog, prog, prog, prog);
    return 2;
}

/** Finds the "stats" object of the point with @p id in @p sweep. */
const Json *
findPointStats(const Json &sweep, const std::string &id)
{
    if (!sweep.has("points"))
        bowsim::fatal("sweep artifact has no \"points\" array");
    const Json &points = sweep.at("points");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Json &p = points.at(i);
        if (p.has("id") && p.at("id").asString() == id) {
            if (!p.has("stats"))
                bowsim::fatal("point '", id, "' has no stats (failed?)");
            return &p.at("stats");
        }
    }
    bowsim::fatal("sweep artifact has no point with id '", id, "'");
}

}  // namespace

int
main(int argc, char **argv)
{
    bool trace_mode = argc >= 2 && std::strcmp(argv[1], "--trace") == 0;
    bool metrics_mode =
        argc >= 2 && std::strcmp(argv[1], "--metrics") == 0;
    bool litmus_mode =
        argc >= 2 && std::strcmp(argv[1], "--litmus") == 0;
    bool compare_mode =
        argc >= 2 && std::strcmp(argv[1], "--compare-points") == 0;
    bool sync_mode =
        argc >= 2 && std::strcmp(argv[1], "--sync-report") == 0;
    int first_file = trace_mode || metrics_mode || litmus_mode ||
                             compare_mode || sync_mode
                         ? 2
                         : 1;
    bool args_ok;
    if (trace_mode || sync_mode)
        args_ok = argc == 3;
    else if (metrics_mode)
        args_ok = argc == 3 || argc == 5;
    else if (litmus_mode)
        args_ok = argc == 3 || argc == 4;
    else if (compare_mode)
        args_ok = argc == 4;
    else
        args_ok = argc == 2 || argc == 3 || argc == 4;
    if (!args_ok)
        return usage(argv[0]);
    const char *path = argv[first_file];

    // The optional counts, -1 when absent; parseWhole exits 2 on a
    // value that is not a whole decimal number.
    auto count = [&](const char *name, int index) -> std::int64_t {
        if (index >= argc)
            return -1;
        return static_cast<std::int64_t>(parseWhole(
            name, argv[index], 0, std::numeric_limits<std::int64_t>::max()));
    };
    std::int64_t expected = -1;
    std::int64_t expected_hits = -1;
    if (litmus_mode) {
        expected = count("EXPECTED_CELLS", 3);
    } else if (first_file == 1) {
        expected = count("EXPECTED_POINT_COUNT", 2);
        expected_hits = count("EXPECTED_CACHE_HITS", 3);
    }

    try {
        const Json doc = bowsim::harness::loadJsonFile(path);
        CheckResult res;
        if (trace_mode) {
            res = bowsim::harness::checkChromeTrace(doc);
        } else if (sync_mode) {
            res = bowsim::harness::checkSyncReport(doc);
        } else if (compare_mode) {
            const Json other = bowsim::harness::loadJsonFile(argv[3]);
            res = bowsim::harness::compareSweepPoints(doc, other);
        } else if (litmus_mode) {
            res = bowsim::harness::checkLitmusMatrix(doc, expected);
        } else if (metrics_mode) {
            Json sweep;
            const Json *stats = nullptr;
            if (argc == 5) {
                sweep = bowsim::harness::loadJsonFile(argv[3]);
                stats = findPointStats(sweep, argv[4]);
            }
            res = bowsim::harness::checkMetricsSeries(doc, stats);
        } else {
            res = bowsim::harness::checkSweepArtifact(doc, expected,
                                                      expected_hits);
        }
        if (!res.ok) {
            std::fprintf(stderr, "json_check: %s: %s\n", path,
                         res.message.c_str());
            return 1;
        }
        std::printf("json_check: %s %s\n", path, res.message.c_str());
    } catch (const bowsim::FatalError &e) {
        std::fprintf(stderr, "json_check: %s invalid: %s\n", path,
                     e.what());
        return 1;
    }
    return 0;
}
