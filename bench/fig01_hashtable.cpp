/**
 * Figure 1 (b-e): fine-grained synchronization on "current GPUs".
 *
 *  1b: hashtable insertion time, GPU (simulated Pascal + Fermi) vs a real
 *      serial CPU run, sweeping bucket counts (fewer buckets = more
 *      contention).
 *  1c: fraction of dynamic instructions that are synchronization
 *      overhead.
 *  1d: fraction of memory transactions due to synchronization.
 *  1e: SIMD efficiency with a single warp vs many warps (inter-warp lock
 *      conflicts cause the drop).
 */
#include "bench/bench_common.hpp"

#include "src/cpuref/hashtable_cpu.hpp"
#include "src/kernels/hashtable.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    const std::vector<unsigned> buckets = {128, 256, 512, 1024, 2048,
                                           4096};
    const auto insertions = static_cast<std::int64_t>(24576 * opts.scale);

    // Three GPU points per bucket count: Fermi (reused for both 1b and
    // the 1c/1d/1e multi-warp columns — same config, same inputs),
    // Pascal, and the single-warp variant for 1e. The CPU reference is
    // a real natively-timed serial run and stays on this thread.
    Sweep sweep;
    sweep.name = "fig01_hashtable";
    for (unsigned b : buckets) {
        const KernelParams multi = {{"insertions", insertions},
                                    {"buckets", b},
                                    {"ctas", 30},
                                    {"threadsPerCta", 256}};
        const KernelParams single = {{"insertions", 2048},
                                     {"buckets", b},
                                     {"ctas", 1},
                                     {"threadsPerCta", 32}};
        GpuConfig fermi = makeGtx480Config();
        applyCores(opts, fermi);
        GpuConfig pascal = makeGtx1080TiConfig();
        applyCores(opts, pascal);
        sweep.add("HT/fermi/" + std::to_string(b), "HT", fermi, 1.0, multi);
        sweep.add("HT/pascal/" + std::to_string(b), "HT", pascal, 1.0,
                  multi);
        sweep.add("HT/single/" + std::to_string(b), "HT", fermi, 1.0,
                  single);
    }

    const std::vector<SweepResult> results = runSweep(opts, sweep);
    auto fermiStats = [&](size_t i) -> const KernelStats & {
        return results[i * 3].stats;
    };

    printHeader("Figure 1b: HT execution time (ms), CPU vs GPU");
    std::printf("%-8s %12s %12s %12s\n", "buckets", "cpu_ms",
                "fermi_ms", "pascal_ms");
    // Real, natively-timed serial CPU insertion of the same keys.
    const std::vector<Word> keys = hashtableKeys(
        static_cast<unsigned>(insertions), HashtableParams{}.seed);
    for (size_t i = 0; i < buckets.size(); ++i) {
        CpuHashtableResult cpu = cpuHashtableInsert(keys, buckets[i], 20);

        GpuConfig fermi = makeGtx480Config();
        GpuConfig pascal = makeGtx1080TiConfig();
        std::printf("%-8u %12.4f %12.4f %12.4f\n", buckets[i],
                    cpu.milliseconds,
                    fermiStats(i).milliseconds(fermi.coreClockMhz),
                    results[i * 3 + 1].stats.milliseconds(
                        pascal.coreClockMhz));
    }

    printHeader("Figure 1c/1d: synchronization overheads (Fermi, GTO)");
    std::printf("%-8s %14s %14s %16s\n", "buckets", "sync_inst_frac",
                "sync_mem_frac", "thread_insts");
    for (size_t i = 0; i < buckets.size(); ++i) {
        const KernelStats &s = fermiStats(i);
        double mem_frac =
            s.l1Accesses == 0
                ? 0.0
                : static_cast<double>(s.syncMemTransactions) /
                      s.l1Accesses;
        std::printf("%-8u %14.3f %14.3f %16llu\n", buckets[i],
                    s.syncInstructionFraction(), mem_frac,
                    static_cast<unsigned long long>(s.threadInstructions));
    }

    printHeader("Figure 1e: SIMD efficiency, single warp vs many warps");
    std::printf("%-8s %14s %14s\n", "buckets", "single_warp",
                "multi_warp");
    for (size_t i = 0; i < buckets.size(); ++i) {
        std::printf("%-8u %14.3f %14.3f\n", buckets[i],
                    results[i * 3 + 2].stats.simdEfficiency(),
                    fermiStats(i).simdEfficiency());
    }
    return 0;
}
