#include "src/kernels/cp_ds.hpp"

#include <numeric>
#include <vector>

#include "src/common/log.hpp"
#include "src/isa/assembler.hpp"

namespace bowsim {

namespace {

/**
 * Params: [0]=locks, [1]=positions, [2]=pairA, [3]=pairB,
 *         [4]=numConstraints, [5]=restLength, [6]=iterations.
 */
constexpr const char *kCpDsSource = R"(
.kernel cp_ds
.param 7
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  mov %r2, %nctaid;
  mul %r2, %r2, %r1;
  ld.param.u64 %r10, [0];        // locks
  ld.param.u64 %r11, [8];        // positions
  ld.param.u64 %r12, [16];       // pairA
  ld.param.u64 %r13, [24];       // pairB
  ld.param.u64 %r14, [32];       // numConstraints
  ld.param.u64 %r25, [40];       // rest length
  ld.param.u64 %r26, [48];       // iterations
  mov %r27, 0;                   // iter
ITER:
  setp.ge.s64 %p5, %r27, %r26;
  @%p5 exit;
  mov %r3, %r0;
OUTER:
  setp.ge.s64 %p0, %r3, %r14;
  @%p0 bra NEXTITER;
  shl %r4, %r3, 3;
  add %r5, %r12, %r4;
  ld.global.u64 %r5, [%r5];      // particle i
  add %r6, %r13, %r4;
  ld.global.u64 %r6, [%r6];      // particle j
  shl %r7, %r5, 3;
  add %r7, %r10, %r7;            // &lock[i]
  shl %r8, %r6, 3;
  add %r8, %r10, %r8;            // &lock[j]
  shl %r17, %r5, 3;
  add %r17, %r11, %r17;          // &x[i]
  shl %r18, %r6, 3;
  add %r18, %r11, %r18;          // &x[j]
  mov %r20, 0;                   // done = false
.annot sync_begin
LOOP:
  .annot acquire
  atom.global.cas.b64 %r15, [%r7], 0, 1;
  setp.ne.s64 %p1, %r15, 0;
  @%p1 bra SKIP;
  .annot acquire
  atom.global.cas.b64 %r16, [%r8], 0, 1;
  setp.ne.s64 %p2, %r16, 0;
  @%p2 bra REL1;
.annot sync_end
  membar;
  // distance solve: move both ends half the violation
  ld.global.u64 %r21, [%r17];
  ld.global.u64 %r22, [%r18];
  sub %r23, %r22, %r21;          // d = x[j] - x[i]
  sub %r23, %r23, %r25;          // violation = d - rest
  div %r23, %r23, 2;             // corr
  add %r21, %r21, %r23;
  sub %r22, %r22, %r23;
  st.global.u64 [%r17], %r21;
  st.global.u64 [%r18], %r22;
  mov %r20, 1;
  membar;
.annot sync_begin
  atom.global.exch.b64 %r24, [%r8], 0;
REL1:
  atom.global.exch.b64 %r28, [%r7], 0;
SKIP:
  setp.eq.s64 %p3, %r20, 0;
  .annot spin
  @%p3 bra LOOP;
.annot sync_end
  add %r3, %r3, %r2;
  bra.uni OUTER;
NEXTITER:
  add %r27, %r27, 1;
  bra.uni ITER;
)";

class CpDsHarness : public KernelHarness {
  public:
    explicit CpDsHarness(const CpDsParams &p)
        : KernelHarness("DS"), p_(p), prog_(assemble(kCpDsSource))
    {
        if (p_.side < 2)
            fatal("DS: cloth side must be at least 2");
    }

    void
    setup(Gpu &gpu) override
    {
        const unsigned n = p_.side;
        const unsigned particles = n * n;
        // Structural constraints: right and down neighbours.
        pairA_.clear();
        pairB_.clear();
        for (unsigned r = 0; r < n; ++r) {
            for (unsigned c = 0; c < n; ++c) {
                unsigned idx = r * n + c;
                if (c + 1 < n) {
                    pairA_.push_back(idx);
                    pairB_.push_back(idx + 1);
                }
                if (r + 1 < n) {
                    pairA_.push_back(idx);
                    pairB_.push_back(idx + n);
                }
            }
        }
        // Deterministic shuffle: adjacent constraints share particles,
        // and leaving them adjacent puts every conflict inside one warp.
        // Real cloth solvers interleave constraint batches; the shuffle
        // spreads conflicts across warps (as in the paper's DS, where
        // most failures are inter-warp).
        XorShift64 shuffle(p_.seed ^ 0xdecafbad);
        for (size_t i = pairA_.size(); i > 1; --i) {
            size_t j = shuffle.step() % i;
            std::swap(pairA_[i - 1], pairA_[j]);
            std::swap(pairB_[i - 1], pairB_[j]);
        }
        positions_.resize(particles);
        XorShift64 rng(p_.seed);
        for (auto &pos : positions_)
            pos = static_cast<Word>(rng.next() % 2048);
        locksAddr_ = gpu.malloc(particles * 8);
        posAddr_ = gpu.malloc(particles * 8);
        pairAAddr_ = gpu.malloc(pairA_.size() * 8);
        pairBAddr_ = gpu.malloc(pairB_.size() * 8);
        gpu.memcpyToDevice(posAddr_, positions_.data(), particles * 8);
        gpu.memcpyToDevice(pairAAddr_, pairA_.data(), pairA_.size() * 8);
        gpu.memcpyToDevice(pairBAddr_, pairB_.data(), pairB_.size() * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        return {LaunchSpec{
            &prog_, Dim3{p_.ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(locksAddr_), static_cast<Word>(posAddr_),
             static_cast<Word>(pairAAddr_), static_cast<Word>(pairBAddr_),
             static_cast<Word>(pairA_.size()), kRestLength,
             static_cast<Word>(p_.iterations)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        const unsigned particles = p_.side * p_.side;
        std::vector<Word> pos(particles);
        gpu.memcpyFromDevice(pos.data(), posAddr_, particles * 8);
        // Symmetric corrections preserve the coordinate sum exactly.
        Word before = std::accumulate(positions_.begin(), positions_.end(),
                                      Word{0});
        Word after = std::accumulate(pos.begin(), pos.end(), Word{0});
        if (before != after)
            return false;
        std::vector<Word> locks(particles);
        gpu.memcpyFromDevice(locks.data(), locksAddr_, particles * 8);
        for (Word l : locks) {
            if (l != 0)
                return false;
        }
        return true;
    }

    std::vector<const Program *>
    programs() const override
    {
        return {&prog_};
    }

  private:
    static constexpr Word kRestLength = 16;

    CpDsParams p_;
    Program prog_;
    std::vector<Word> pairA_;
    std::vector<Word> pairB_;
    std::vector<Word> positions_;
    Addr locksAddr_ = 0;
    Addr posAddr_ = 0;
    Addr pairAAddr_ = 0;
    Addr pairBAddr_ = 0;
};

}  // namespace

std::unique_ptr<KernelHarness>
makeCpDs(const CpDsParams &p)
{
    return std::make_unique<CpDsHarness>(p);
}

}  // namespace bowsim
