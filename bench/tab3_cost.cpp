/**
 * Table III: DDOS and BOWS implementation costs per SM, computed from
 * the GTX480 design parameters: a 480-bit SIB-PT (16 entries x 30 bits;
 * the paper budgets 35 bits per entry for 560, EXPERIMENTS.md), 192
 * bits of history per warp and 14-bit pending delay counters.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    // No simulations here — the table is computed from the config — but
    // the shared flags (and an empty --json artifact) are still honored
    // so every bench binary speaks the same interface.
    BenchOptions opts = parseOptions(argc, argv);
    Sweep sweep;
    sweep.name = "tab3_cost";
    runSweep(opts, sweep);

    GpuConfig cfg = makeGtx480Config();
    applyCores(opts, cfg);
    const DdosConfig &d = cfg.ddos;
    unsigned warps = cfg.maxWarpsPerCore();

    printHeader("Table III: DDOS and BOWS implementation costs per SM");

    // SIB-PT entry: PC tag (26b in the paper's accounting), confidence
    // bits, prediction bit -> 30 bits per entry at threshold 4.
    unsigned conf_bits = 0;
    for (unsigned v = d.confidenceThreshold; v > 0; v >>= 1)
        ++conf_bits;
    unsigned entry_bits = 26 + conf_bits + 1;
    std::printf("DDOS SIB-PT:           %u entries x %u bits = %u bits\n",
                kSibTableEntries, entry_bits, kSibTableEntries * entry_bits);

    // History registers: path (l x m) + value (2 x l x k) per warp.
    unsigned per_warp =
        d.historyLength * d.hashBits + 2 * d.historyLength * d.hashBits;
    unsigned sets = d.timeShare ? 1 : warps;
    std::printf("DDOS history regs:     %u sets x %u bits = %u bits%s\n",
                sets, per_warp, sets * per_warp,
                d.timeShare ? " (time-shared)" : "");
    std::printf("DDOS comparison:       %u-bit comparator + %u:1 %u-bit "
                "mux\n",
                d.hashBits, d.historyLength, d.hashBits);
    std::printf("DDOS hashing (XOR):    %u %u-bit XOR trees\n",
                64 / d.hashBits, d.hashBits);
    std::printf("DDOS FSM:              %u x 4-state FSMs\n", sets);

    // BOWS: pending delay counters sized for the max delay limit.
    unsigned delay_bits = 0;
    for (Cycle v = cfg.bows.maxLimit; v > 0; v >>= 1)
        ++delay_bits;
    unsigned queue_bits = 0;
    for (unsigned v = warps; v > 1; v >>= 1)
        ++queue_bits;
    std::printf("BOWS pending delay:    %u warps x %u bits = %u bits\n",
                warps, delay_bits, warps * delay_bits);
    std::printf("BOWS backed-off queue: %u warps x %u bits = %u bits\n",
                warps, queue_bits, warps * queue_bits);
    std::printf("BOWS adaptive logic:   2 instruction counters + 1 "
                "division per %llu-cycle window\n",
                static_cast<unsigned long long>(kBowsWindow));

    unsigned total = kSibTableEntries * entry_bits + sets * per_warp +
                     warps * delay_bits + warps * queue_bits;
    std::printf("Total storage:         %u bits (%.2f KiB) per SM\n",
                total, total / 8192.0);
    return 0;
}
