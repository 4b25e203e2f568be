/**
 * Figure 13: BOWS impact on dynamic overheads across back-off delay
 * limits — (a) dynamic thread-instruction count, (b) memory (L1D)
 * transactions, (c) SIMD efficiency. Instruction counts and memory
 * transactions are normalized to plain GTO.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    const std::vector<DelayMode> &modes = delayModes();
    const std::vector<std::string> &kernels = syncKernelNames();
    const Sweep sweep = delaySweep("fig13_overheads", opts);

    const std::vector<SweepResult> results = runSweep(opts, sweep);

    auto table = [&](const char *title, auto metric, bool normalize) {
        printHeader(title);
        std::printf("%-6s", "kernel");
        for (const DelayMode &m : modes)
            std::printf(" %8s", m.label);
        std::printf("\n");
        std::vector<double> gmean(modes.size(), 1.0);
        for (size_t k = 0; k < kernels.size(); ++k) {
            std::printf("%-6s", kernels[k].c_str());
            double base = metric(results[k * modes.size()].stats);
            for (size_t m = 0; m < modes.size(); ++m) {
                double v = metric(results[k * modes.size() + m].stats);
                double out = normalize && base != 0 ? v / base : v;
                gmean[m] *= out;
                std::printf(" %8.3f", out);
            }
            std::printf("\n");
        }
        std::printf("%-6s", "Gmean");
        for (size_t m = 0; m < modes.size(); ++m)
            std::printf(" %8.3f",
                        std::pow(gmean[m], 1.0 / kernels.size()));
        std::printf("\n\n");
    };

    table("Figure 13a: dynamic instruction count (normalized to GTO)",
          [](const KernelStats &s) {
              return static_cast<double>(s.threadInstructions);
          },
          true);
    table("Figure 13b: L1D memory transactions (normalized to GTO)",
          [](const KernelStats &s) {
              return static_cast<double>(s.l1Accesses);
          },
          true);
    table("Figure 13c: SIMD efficiency (absolute)",
          [](const KernelStats &s) { return s.simdEfficiency(); }, false);
    return 0;
}
