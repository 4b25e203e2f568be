/**
 * Figure 9: normalized execution time (a) and dynamic energy (b) of
 * {LRR, GTO, CAWA} x {base, +BOWS} on the busy-wait synchronization
 * kernels, GTX480 (Fermi) configuration. Everything is normalized to
 * LRR, as in the paper. BOWS uses the adaptive delay limit and DDOS
 * detection.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    printHeader("Figure 9a/9b: exec time and energy normalized to LRR "
                "(GTX480)");
    std::printf("%-6s | %7s %7s %7s %7s %7s %7s | %7s %7s %7s %7s %7s "
                "%7s\n",
                "kernel", "LRR", "LRR+B", "GTO", "GTO+B", "CAWA",
                "CAWA+B", "eLRR", "eLRR+B", "eGTO", "eGTO+B", "eCAWA",
                "eCAWA+B");

    const std::vector<std::string> &kernels = syncKernelNames();
    const Sweep sweep =
        policySweep("fig09_fermi", opts, makeGtx480Config, {false, true});

    const std::vector<SweepResult> results = runSweep(opts, sweep);

    double time_gmean[6] = {1, 1, 1, 1, 1, 1};
    double energy_gmean[6] = {1, 1, 1, 1, 1, 1};
    unsigned count = 0;
    for (size_t k = 0; k < kernels.size(); ++k) {
        double cycles[6];
        double energy[6];
        for (unsigned i = 0; i < 6; ++i) {
            const KernelStats &s = results[k * 6 + i].stats;
            cycles[i] = static_cast<double>(s.cycles);
            energy[i] = s.energyNj;
        }
        // Columns are already LRR, LRR+B, GTO, GTO+B, CAWA, CAWA+B;
        // normalize to plain LRR.
        std::printf("%-6s |", kernels[k].c_str());
        for (unsigned i = 0; i < 6; ++i)
            std::printf(" %7.3f", cycles[i] / cycles[0]);
        std::printf(" |");
        for (unsigned i = 0; i < 6; ++i)
            std::printf(" %7.3f", energy[i] / energy[0]);
        std::printf("\n");
        for (unsigned i = 0; i < 6; ++i) {
            time_gmean[i] *= cycles[i] / cycles[0];
            energy_gmean[i] *= energy[i] / energy[0];
        }
        ++count;
    }
    std::printf("%-6s |", "Gmean");
    for (unsigned k = 0; k < 6; ++k)
        std::printf(" %7.3f", std::pow(time_gmean[k], 1.0 / count));
    std::printf(" |");
    for (unsigned k = 0; k < 6; ++k)
        std::printf(" %7.3f", std::pow(energy_gmean[k], 1.0 / count));
    std::printf("\n");

    std::printf("\n# BOWS speedup vs its own baseline (gmean): "
                "LRR %.2fx, GTO %.2fx, CAWA %.2fx\n",
                std::pow(time_gmean[0] / time_gmean[1], 1.0 / count),
                std::pow(time_gmean[2] / time_gmean[3], 1.0 / count),
                std::pow(time_gmean[4] / time_gmean[5], 1.0 / count));
    return 0;
}
