/**
 * Figure 10: normalized execution time of GTO+BOWS at back-off delay
 * limits {none, 0, 500, 1000, 3000, 5000, adaptive}, using DDOS for spin
 * detection, across the busy-wait synchronization kernels. Values are
 * normalized to plain GTO (first column == 1.0 by construction).
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 0.5, 8);

    printHeader("Figure 10: execution time vs back-off delay limit "
                "(normalized to GTO)");
    std::printf("%-6s %8s %8s %8s %8s %8s %8s %10s\n", "kernel", "GTO",
                "BOWS(0)", "B(500)", "B(1000)", "B(3000)", "B(5000)",
                "B(adapt)");

    const std::vector<DelayMode> &modes = delayModes();
    const std::vector<std::string> &kernels = syncKernelNames();
    const Sweep sweep = delaySweep("fig10_delay_sweep", opts);

    const std::vector<SweepResult> results = runSweep(opts, sweep);
    for (size_t k = 0; k < kernels.size(); ++k) {
        const double base = static_cast<double>(
            results[k * modes.size()].stats.cycles);
        std::printf("%-6s", kernels[k].c_str());
        for (size_t m = 0; m < modes.size(); ++m)
            std::printf(" %8.3f",
                        static_cast<double>(
                            results[k * modes.size() + m].stats.cycles) /
                            base);
        std::printf("\n");
    }
    return 0;
}
