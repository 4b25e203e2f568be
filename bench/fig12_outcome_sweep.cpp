/**
 * Figure 12: lock-acquire / wait-exit outcome distribution as the BOWS
 * back-off delay limit grows (GTO baseline first). Throttled spinning
 * converts failed acquire attempts into successes per attempt — e.g.,
 * the paper reports a 10.8x lock-failure-rate reduction on HT.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    printHeader("Figure 12: outcome distribution vs delay limit "
                "(fractions; rows: kernel x mode)");
    std::printf("%-6s %-8s %9s %9s %9s %9s %9s %12s\n", "kernel", "mode",
                "lock_ok", "interFail", "intraFail", "wait_ok",
                "wait_fail", "fail_per_ok");
    const std::vector<DelayMode> &modes = delayModes();
    const std::vector<std::string> &kernels = syncKernelNames();
    const Sweep sweep = delaySweep("fig12_outcome_sweep", opts);

    const std::vector<SweepResult> results = runSweep(opts, sweep);
    for (size_t k = 0; k < kernels.size(); ++k) {
        for (size_t m = 0; m < modes.size(); ++m) {
            const KernelStats &s = results[k * modes.size() + m].stats;
            double total = static_cast<double>(s.outcomes.total());
            if (total == 0)
                total = 1;
            double fails = static_cast<double>(s.outcomes.interWarpFail +
                                               s.outcomes.intraWarpFail);
            double per_ok = s.outcomes.lockSuccess == 0
                                ? 0.0
                                : fails / s.outcomes.lockSuccess;
            std::printf("%-6s %-8s %9.3f %9.3f %9.3f %9.3f %9.3f %12.2f\n",
                        kernels[k].c_str(), modes[m].label,
                        s.outcomes.lockSuccess / total,
                        s.outcomes.interWarpFail / total,
                        s.outcomes.intraWarpFail / total,
                        s.outcomes.waitExitSuccess / total,
                        s.outcomes.waitExitFail / total, per_ok);
        }
    }
    return 0;
}
