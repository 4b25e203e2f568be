/**
 * Execution-mode microbenchmark (docs/PERF.md, "Execution modes"): one
 * long-spin kernel — every thread increments a single global counter K
 * times inside a spin-lock critical section, the worst case for
 * cycle-accurate simulation speed — run under both execution modes:
 *
 *   cycle       ground truth; burns a simulated cycle per spin retry
 *   functional  ISA semantics only; bounded-fairness rotation caps spin
 *
 * Printed per mode: wall-clock, simulated cycles, IPC (cycle mode
 * only), the memory digest and the counter value. The kernel's final
 * memory is schedule-invariant, so the functional digest must equal
 * the cycle digest byte for byte; the bench fails loudly when it does
 * not. The headline number is the functional
 * wall-clock speedup — the more contended the lock, the larger it gets
 * (spin retries are free in functional mode and ruinous in cycle mode).
 *
 * Points run with --jobs=1 by default so the wall-clock comparison is
 * not skewed by the sweep pool.
 */
#include "bench/bench_common.hpp"

#include <array>
#include <chrono>

#include "src/isa/assembler.hpp"

using namespace bowsim;
using namespace bowsim::bench;

namespace {

/** Spin-counter kernel: K serialized increments per thread. */
constexpr const char *kSpinLoopSource = R"(
.kernel spin_loop
.param 3
  ld.param.u64 %r1, [0];         // mutex
  ld.param.u64 %r2, [8];         // counter
  ld.param.u64 %r10, [16];       // iterations per thread
OUTER:
  setp.eq.s64 %p3, %r10, 0;
  @%p3 bra DONE;
  mov %r20, 0;
.annot sync_begin
LOOP:
  .annot acquire
  atom.global.cas.b64 %r3, [%r1], 0, 1;
  setp.ne.s64 %p1, %r3, 0;
  @%p1 bra SKIP;
.annot sync_end
  ld.global.u64 %r4, [%r2];
  add %r4, %r4, 1;
  st.global.u64 [%r2], %r4;
  mov %r20, 1;
  membar;
.annot sync_begin
  atom.global.exch.b64 %r5, [%r1], 0;
SKIP:
  setp.eq.s64 %p2, %r20, 0;
  .annot spin
  @%p2 bra LOOP;
.annot sync_end
  sub %r10, %r10, 1;
  bra.uni OUTER;
DONE:
  exit;
)";

struct ModeResult {
    double wallMs = 0.0;
    std::uint64_t digest = 0;
    Word counter = 0;
};

struct SpinParams {
    unsigned ctas = 0;
    unsigned threadsPerCta = 0;
    Word iters = 0;
};

/** One launch on the runner-provided Gpu, wall-clock timed. */
std::function<KernelStats(Gpu &)>
spinBody(const Program *prog, SpinParams p, ModeResult *out)
{
    return [prog, p, out](Gpu &gpu) {
        const auto t0 = std::chrono::steady_clock::now();
        Addr mutex = gpu.malloc(8);
        Addr counter = gpu.malloc(8);
        KernelStats s = gpu.launch(
            *prog, Dim3{p.ctas, 1, 1}, Dim3{p.threadsPerCta, 1, 1},
            {static_cast<Word>(mutex), static_cast<Word>(counter),
             p.iters});
        out->wallMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        out->digest = gpu.mem().digest();
        gpu.memcpyFromDevice(&out->counter, counter, 8);
        return s;
    };
}

}  // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    if (opts.jobs == 0)
        opts.jobs = 1;  // sequential by default: wall-clock fidelity

    SpinParams p;
    p.ctas = 15;
    p.threadsPerCta = 128;
    p.iters = static_cast<Word>(
        std::max(1.0, std::round(4 * opts.scale)));
    const Program prog = assemble(kSpinLoopSource);
    const Word expect =
        static_cast<Word>(p.ctas) * p.threadsPerCta * p.iters;

    const std::array<const char *, 2> modes = {"cycle", "functional"};
    std::array<ModeResult, 2> mode_results;
    Sweep sweep;
    sweep.name = "micro_functional";
    for (std::size_t m = 0; m < modes.size(); ++m) {
        GpuConfig cfg = makeGtx480Config();
        applyCores(opts, cfg);
        parseExecMode(modes[m], &cfg.execMode);
        sweep.add(std::string("SPIN/") + modes[m], cfg,
                  spinBody(&prog, p, &mode_results[m]));
    }

    const std::vector<SweepResult> results = runSweep(opts, sweep);

    printHeader("Execution modes: long-spin counter microbenchmark");
    std::printf("# ctas=%u threads=%u iters=%llu (%llu critical sections)\n",
                p.ctas, p.threadsPerCta,
                static_cast<unsigned long long>(p.iters),
                static_cast<unsigned long long>(expect));
    std::printf("%-12s %10s %12s %8s %10s\n", "mode", "wall_ms",
                "sim_cycles", "ipc", "speedup");
    const double cycle_ms = mode_results[0].wallMs;
    for (std::size_t m = 0; m < modes.size(); ++m) {
        const KernelStats &s = results[m].stats;
        char ipc[32];
        if (s.cycles > 0)
            std::snprintf(ipc, sizeof ipc, "%.3f", s.ipc());
        else
            std::snprintf(ipc, sizeof ipc, "-");
        const double wall = mode_results[m].wallMs;
        std::printf("%-12s %10.1f %12llu %8s %9.1fx\n", modes[m], wall,
                    static_cast<unsigned long long>(s.cycles), ipc,
                    wall > 0.0 ? cycle_ms / wall : 0.0);
    }

    // Correctness gate: the kernel is schedule-invariant, so every mode
    // must produce the cycle-mode memory image and the exact count.
    bool ok = true;
    for (std::size_t m = 0; m < modes.size(); ++m) {
        if (mode_results[m].counter != expect) {
            std::fprintf(stderr, "error: %s counter %llu != %llu\n",
                         modes[m],
                         static_cast<unsigned long long>(
                             mode_results[m].counter),
                         static_cast<unsigned long long>(expect));
            ok = false;
        }
        if (mode_results[m].digest != mode_results[0].digest) {
            std::fprintf(stderr,
                         "error: %s memory digest diverged from cycle "
                         "mode\n",
                         modes[m]);
            ok = false;
        }
    }
    if (!ok)
        return 1;
    std::printf("# digests byte-identical across modes: 0x%016llx\n",
                static_cast<unsigned long long>(mode_results[0].digest));
    return 0;
}
