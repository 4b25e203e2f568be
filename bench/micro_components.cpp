/**
 * Microbenchmarks of the simulator's hot components (google-benchmark).
 * These gate performance regressions in the per-cycle machinery: DDOS
 * hashing/history updates run on every setp, the SIB-PT on every
 * backward branch, the cache and coalescer on every memory transaction.
 */
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/arch/simt_stack.hpp"
#include "src/core/ddos/hashing.hpp"
#include "src/core/ddos/history.hpp"
#include "src/core/ddos/sib_table.hpp"
#include "src/isa/assembler.hpp"
#include "src/kernels/atm.hpp"
#include "src/kernels/registry.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/coalescer.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sim/gpu.hpp"

namespace {

using namespace bowsim;

/** The shared --no-skip flag (docs/BENCH.md), parsed by main(). */
bool noSkip = false;

void
BM_HashXor(benchmark::State &state)
{
    std::uint64_t v = 0x123456789abcdef0ull;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hashHistory(HashKind::Xor, 8, v));
        v += 0x9e3779b9;
    }
}
BENCHMARK(BM_HashXor);

void
BM_HistoryInsertSpinning(benchmark::State &state)
{
    DdosConfig cfg;
    HistoryRegisters h(cfg);
    std::uint32_t i = 0;
    for (auto _ : state) {
        h.insert(i & 1 ? 0x7 : 0x2, 0x1, 0x0);
        ++i;
    }
    benchmark::DoNotOptimize(h.spinning());
}
BENCHMARK(BM_HistoryInsertSpinning);

void
BM_SibTableLookup(benchmark::State &state)
{
    DdosConfig cfg;
    SibTable t(cfg);
    for (Pc pc = 0; pc < 8; ++pc) {
        for (unsigned i = 0; i < 4; ++i)
            t.onSpinningBranch(pc);
    }
    Pc pc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.isConfirmed(pc));
        pc = (pc + 1) % 16;
    }
}
BENCHMARK(BM_SibTableLookup);

void
BM_CacheAccessHit(benchmark::State &state)
{
    CacheConfig cfg{16 * 1024, 4};
    Cache c(cfg);
    for (Addr a = 0; a < 16 * 1024; a += 128)
        c.fill(a, false, nullptr);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a, false));
        a = (a + 128) % (16 * 1024);
    }
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CoalesceUnitStride(benchmark::State &state)
{
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned l = 0; l < kWarpSize; ++l)
        addrs[l] = 0x1000 + 8 * l;
    for (auto _ : state)
        benchmark::DoNotOptimize(coalesce(addrs, kFullMask));
}
BENCHMARK(BM_CoalesceUnitStride);

void
BM_SimtStackDivergeReconverge(benchmark::State &state)
{
    Instruction bra;
    bra.op = Opcode::Bra;
    bra.guard = 0;
    bra.target = 10;
    bra.reconvergence = 20;
    for (auto _ : state) {
        SimtStack s;
        s.reset(kFullMask);
        s.branch(bra, 0xffff);
        for (Pc pc = 10; pc < 20; ++pc)
            s.advance();
        for (Pc pc = 1; pc < 20; ++pc)
            s.advance();
        benchmark::DoNotOptimize(s.activeMask());
    }
}
BENCHMARK(BM_SimtStackDivergeReconverge);

void
BM_AssembleSpinKernel(benchmark::State &state)
{
    const std::string src = R"(
.kernel spin
.param 2
  ld.param.u64 %r1, [0];
  ld.param.u64 %r2, [8];
LOOP:
  atom.global.cas.b64 %r3, [%r1], 0, 1;
  setp.ne.s64 %p1, %r3, 0;
  @%p1 bra LOOP;
  atom.global.exch.b64 %r4, [%r1], 0;
  exit;
)";
    for (auto _ : state)
        benchmark::DoNotOptimize(assemble(src));
}
BENCHMARK(BM_AssembleSpinKernel);

/**
 * End-to-end cycle loop: one tiny single-SM kernel run per iteration.
 * This is the macro guard on SmCore::cycle / arbitration / LD-ST
 * regressions that the component benchmarks above cannot see.
 */
void
BM_MicroCycleLoop(benchmark::State &state)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    const std::string name = syncKernelNames().front();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Gpu gpu(cfg);
        auto h = makeBenchmark(name, 0.05);
        cycles += h->run(gpu).cycles;
    }
    benchmark::DoNotOptimize(cycles);
    state.counters["sim_cycles_per_iter"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MicroCycleLoop)->Name("micro_cycle_loop")
    ->Unit(benchmark::kMillisecond);

/**
 * Idle-dominated counterpart to micro_cycle_loop: two accounts mean a
 * single serialized critical section, and an adaptive BOWS limit floored
 * at 4000 cycles parks every loser warp for thousands of cycles while
 * the one lock holder drains its critical section. Most cycles have no
 * issue on the (single) SM, which is exactly the shape the idle-cycle
 * fast-forward targets (docs/PERF.md). Pass --no-skip to measure the
 * cycle-by-cycle baseline; results are bit-identical either way.
 */
void
BM_MicroBackoffIdle(benchmark::State &state)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    cfg.spinDetect = SpinDetect::Ddos;
    cfg.bows.enabled = true;
    cfg.bows.adaptive = true;
    cfg.bows.minLimit = 4000;
    cfg.bows.maxLimit = 16000;
    cfg.idleSkip = !noSkip;
    AtmParams p;
    p.transactions = 1024;
    p.accounts = 2;
    p.ctas = 2;
    p.threadsPerCta = 256;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Gpu gpu(cfg);
        auto h = makeAtm(p);
        cycles += h->run(gpu).cycles;
    }
    benchmark::DoNotOptimize(cycles);
    state.counters["sim_cycles_per_iter"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MicroBackoffIdle)->Name("micro_backoff_idle")
    ->Unit(benchmark::kMillisecond);

/**
 * micro_cycle_loop with a metrics sampler attached (interval 1000,
 * in-memory only). Compare against micro_cycle_loop, which runs the
 * identical workload with the sampler detached: the difference is the
 * full metrics cost (per-cycle compare + per-sample collection), and
 * micro_cycle_loop itself guards the detached null path, which must
 * stay within noise of the pre-metrics baseline.
 */
void
BM_MicroMetrics(benchmark::State &state)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    const std::string name = syncKernelNames().front();
    std::uint64_t cycles = 0;
    std::uint64_t rows = 0;
    for (auto _ : state) {
        Gpu gpu(cfg);
        metrics::MetricsSampler sampler(1000);
        gpu.setMetrics(&sampler);
        auto h = makeBenchmark(name, 0.05);
        cycles += h->run(gpu).cycles;
        rows += sampler.rows().size();
    }
    benchmark::DoNotOptimize(cycles);
    benchmark::DoNotOptimize(rows);
    state.counters["sim_cycles_per_iter"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
    state.counters["rows_per_iter"] = benchmark::Counter(
        static_cast<double>(rows), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MicroMetrics)->Name("micro_metrics")
    ->Unit(benchmark::kMillisecond);

}  // namespace

/**
 * Custom main instead of BENCHMARK_MAIN(): the shared bench flags go
 * through parseOptions() like in every other bench binary, and only
 * --benchmark_* arguments reach google-benchmark, so one flag set can be
 * passed to every binary.
 */
int
main(int argc, char **argv)
{
    noSkip = bench::parseOptions(argc, argv).noSkip;
    std::vector<char *> kept;
    kept.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_", 12) == 0)
            kept.push_back(argv[i]);
    }
    int kept_argc = static_cast<int>(kept.size());
    benchmark::Initialize(&kept_argc, kept.data());
    if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
