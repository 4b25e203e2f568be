/**
 * Figure 2: distribution of lock-acquire attempts (lock-based kernels)
 * and wait-exit attempts (wait-and-signal kernels) under LRR, GTO and
 * CAWA. Shows that most failures are inter-warp and that the scheduling
 * policy strongly influences them.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    printHeader("Figure 2: synchronization status distribution "
                "(fractions of all attempts)");
    std::printf("%-6s %-5s %9s %9s %9s %9s %9s\n", "kernel", "sched",
                "lock_ok", "interFail", "intraFail", "wait_ok",
                "wait_fail");

    const std::vector<SchedulerKind> &scheds = basePolicies();
    const std::vector<std::string> &kernels = syncKernelNames();
    const Sweep sweep = policySweep("fig02_sync_distribution", opts,
                                    makeGtx480Config, {false});

    const std::vector<SweepResult> results = runSweep(opts, sweep);
    for (size_t k = 0; k < kernels.size(); ++k) {
        for (size_t m = 0; m < scheds.size(); ++m) {
            const KernelStats &s = results[k * scheds.size() + m].stats;
            double total = static_cast<double>(s.outcomes.total());
            if (total == 0)
                total = 1;
            std::printf("%-6s %-5s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                        kernels[k].c_str(), toString(scheds[m]),
                        s.outcomes.lockSuccess / total,
                        s.outcomes.interWarpFail / total,
                        s.outcomes.intraWarpFail / total,
                        s.outcomes.waitExitSuccess / total,
                        s.outcomes.waitExitFail / total);
        }
    }
    return 0;
}
