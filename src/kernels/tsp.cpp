#include "src/kernels/tsp.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/log.hpp"
#include "src/isa/assembler.hpp"

namespace bowsim {

namespace {

/** The best cost before any climber has reported. */
constexpr Word kInfinity = 1 << 30;

/**
 * Climbers per pass of the host reference: that many independent
 * multiply chains in flight instead of one.
 */
constexpr unsigned kReferenceBatch = 8;

/** One step of the kernel's cost chain (its COST loop body). */
std::int64_t
costStep(std::int64_t cost)
{
    return (cost * 1103515245 + 12345) & 1048575;
}

/**
 * Each climber evaluates a deterministic pseudo-random tour cost (an LCG
 * mix over cities x rounds iterations, standing in for 2-opt moves over a
 * distance matrix), then — one lane at a time (Fig. 6b) — acquires the
 * global lock and updates {bestCost, bestIdx} if it improved.
 *
 * Params: [0]=mutex, [1]=&best (16B: cost,idx), [2]=iterations,
 *         [3]=numClimbers.
 */
constexpr const char *kTspSource = R"(
.kernel tsp
.param 4
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  ld.param.u64 %r10, [0];
  ld.param.u64 %r11, [8];
  ld.param.u64 %r12, [16];       // iterations = cities * rounds
  ld.param.u64 %r14, [24];       // numClimbers
  setp.ge.s64 %p0, %r0, %r14;
  @%p0 exit;
  // --- tour-cost evaluation (useful work) -----------------------------
  add %r5, %r0, 99991;           // cost accumulator seeded by tid
  mov %r4, 0;
COST:
  setp.ge.s64 %p1, %r4, %r12;
  @%p1 bra COSTDONE;
  mul %r5, %r5, 1103515245;
  add %r5, %r5, 12345;
  and %r5, %r5, 1048575;         // keep it positive, 20 bits
  add %r4, %r4, 1;
  bra.uni COST;
COSTDONE:
  // --- serialize lanes over the global critical section ----------------
  mov %r6, 0;
LANE_LOOP:
  setp.ge.s64 %p2, %r6, 32;
  @%p2 exit;
  mov %r7, %laneid;
  setp.ne.s64 %p3, %r7, %r6;
  @%p3 bra NEXT;
.annot sync_begin
TRY:
  .annot acquire
  atom.global.cas.b64 %r8, [%r10], 0, 1;
  setp.ne.s64 %p4, %r8, 0;
  .annot spin
  @%p4 bra TRY;
.annot sync_end
  membar;
  ld.global.u64 %r9, [%r11];     // best cost
  setp.lt.s64 %p5, %r5, %r9;
  @!%p5 bra REL;
  st.global.u64 [%r11], %r5;
  st.global.u64 [%r11+8], %r0;
REL:
  membar;
.annot sync_begin
  atom.global.exch.b64 %r13, [%r10], 0;
.annot sync_end
NEXT:
  add %r6, %r6, 1;
  bra.uni LANE_LOOP;
)";

class TspHarness : public KernelHarness {
  public:
    explicit TspHarness(const TspParams &p)
        : KernelHarness("TSP"), p_(p), prog_(assemble(kTspSource))
    {
    }

    void
    setup(Gpu &gpu) override
    {
        mutexAddr_ = gpu.malloc(8);
        bestAddr_ = gpu.malloc(16);
        Word init[2] = {kInfinity, -1};
        gpu.memcpyToDevice(bestAddr_, init, 16);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        unsigned ctas =
            (p_.climbers + p_.threadsPerCta - 1) / p_.threadsPerCta;
        return {LaunchSpec{
            &prog_, Dim3{ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(mutexAddr_), static_cast<Word>(bestAddr_),
             static_cast<Word>(p_.cities * p_.rounds),
             static_cast<Word>(p_.climbers)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        Word best[2];
        gpu.memcpyFromDevice(best, bestAddr_, 16);
        const Word expected = tspHostBest(p_).cost;
        if (best[0] != expected)
            return false;
        if (best[1] < 0 ||
            best[1] >= static_cast<Word>(p_.climbers) ||
            tspHostCost(p_, static_cast<unsigned>(best[1])) != expected) {
            return false;
        }
        Word mutex = 0;
        gpu.memcpyFromDevice(&mutex, mutexAddr_, 8);
        return mutex == 0;
    }

    std::vector<const Program *>
    programs() const override
    {
        return {&prog_};
    }

  private:
    TspParams p_;
    Program prog_;
    Addr mutexAddr_ = 0;
    Addr bestAddr_ = 0;
};

}  // namespace

Word
tspHostCost(const TspParams &p, unsigned climber)
{
    std::int64_t cost = static_cast<std::int64_t>(climber) + 99991;
    for (unsigned i = 0; i < p.cities * p.rounds; ++i)
        cost = costStep(cost);
    return cost;
}

TspBest
tspHostBest(const TspParams &p)
{
    TspBest best{kInfinity, 0};
    for (unsigned first = 0; first < p.climbers;) {
        const unsigned n = std::min(kReferenceBatch, p.climbers - first);
        // Lanes past n run on a spare chain and are ignored.
        std::int64_t cost[kReferenceBatch];
        for (unsigned k = 0; k < kReferenceBatch; ++k)
            cost[k] = static_cast<std::int64_t>(first) + k + 99991;
        for (unsigned i = 0; i < p.cities * p.rounds; ++i) {
            for (std::int64_t &c : cost)
                c = costStep(c);
        }
        for (unsigned k = 0; k < n; ++k) {
            if (cost[k] < best.cost)
                best = {cost[k], first + k};
        }
        first += n;
    }
    return best;
}

std::unique_ptr<KernelHarness>
makeTsp(const TspParams &p)
{
    return std::make_unique<TspHarness>(p);
}

}  // namespace bowsim
