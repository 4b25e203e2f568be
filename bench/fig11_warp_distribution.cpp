/**
 * Figure 11: average fraction of resident warps sitting in the
 * backed-off state, as the back-off delay limit grows. The delay has no
 * visible effect until it exceeds the natural spin-iteration latency of
 * each benchmark, then the backed-off population climbs.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    printHeader("Figure 11: backed-off warp fraction vs delay limit "
                "(GTO+BOWS, DDOS)");
    std::printf("%-6s %8s %8s %8s %8s %8s %8s %8s\n", "kernel", "GTO",
                "B(0)", "B(500)", "B(1000)", "B(3000)", "B(5000)",
                "B(adapt)");
    const std::vector<DelayMode> &modes = delayModes();
    const std::vector<std::string> &kernels = syncKernelNames();
    const Sweep sweep = delaySweep("fig11_warp_distribution", opts);

    const std::vector<SweepResult> results = runSweep(opts, sweep);
    for (size_t k = 0; k < kernels.size(); ++k) {
        std::printf("%-6s", kernels[k].c_str());
        for (size_t m = 0; m < modes.size(); ++m)
            std::printf(" %8.3f",
                        results[k * modes.size() + m]
                            .stats.backedOffFraction());
        std::printf("\n");
    }
    return 0;
}
