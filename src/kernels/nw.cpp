#include "src/kernels/nw.hpp"

#include <algorithm>
#include <vector>

#include "src/common/log.hpp"
#include "src/cpuref/nw_cpu.hpp"
#include "src/isa/assembler.hpp"

namespace bowsim {

namespace {

/**
 * One thread per matrix row, with a skewed (diagonal) step loop: at step
 * s, lane l computes column c = s - l + 1. Intra-warp dependencies
 * ((r-1, c) from the lane above) were produced at step s-1 and are
 * warp-synchronous — a lane that *waited* on its neighbour lane would be
 * a SIMT-induced deadlock, since the producer lane parks at the
 * reconvergence point while the consumer spins. Only lane 0 of each warp
 * crosses a warp boundary: it spins on progress[r-1] (volatile — polls
 * through to L2) until the previous warp's last row has published column
 * c, giving an acyclic warp-to-warp wait chain.
 *
 * Params: [0]=F, [1]=progress, [2]=seqA, [3]=seqB, [4]=n,
 *         [5]=matchScore, [6]=mismatchPenalty, [7]=gapPenalty.
 */
constexpr const char *kNwSource = R"(
.kernel nw
.param 8
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;       // row index r0; matrix row = r0 + 1
  ld.param.u64 %r10, [0];
  ld.param.u64 %r11, [8];
  ld.param.u64 %r12, [16];
  ld.param.u64 %r13, [24];
  ld.param.u64 %r14, [32];       // n
  ld.param.u64 %r25, [40];       // match
  ld.param.u64 %r26, [48];       // mismatch
  ld.param.u64 %r27, [56];       // gap
  setp.ge.s64 %p0, %r0, %r14;
  @%p0 exit;
  add %r2, %r0, 1;               // mrow
  add %r3, %r14, 1;              // rowWords = n + 1
  mul %r4, %r2, %r3;
  shl %r4, %r4, 3;
  add %r4, %r10, %r4;            // rowBase = &F[mrow][0]
  shl %r5, %r3, 3;
  sub %r6, %r4, %r5;             // prevRowBase = &F[mrow-1][0]
  shl %r7, %r0, 3;
  add %r7, %r11, %r7;            // &progress[mrow-1]
  add %r8, %r7, 8;               // &progress[mrow]
  shl %r9, %r0, 3;
  add %r9, %r13, %r9;
  ld.global.u64 %r9, [%r9];      // bchar = seqB[mrow-1]
  mov %r30, %laneid;
  add %r31, %r14, 31;            // steps = n + warpSize - 1
  mov %r15, 0;                   // step s
STEP:
  setp.ge.s64 %p1, %r15, %r31;
  @%p1 exit;
  sub %r16, %r15, %r30;
  add %r16, %r16, 1;             // c = s - lane + 1
  setp.lt.s64 %p2, %r16, 1;
  @%p2 bra NEXT;
  setp.gt.s64 %p3, %r16, %r14;
  @%p3 bra NEXT;
  add %r17, %r16, 1;             // need progress[mrow-1] >= c+1
.annot sync_begin
WAIT:
  ld.volatile.global.u64 %r18, [%r7];
  .annot wait
  setp.ge.s64 %p4, %r18, %r17;
  .annot spin
  @!%p4 bra WAIT;
.annot sync_end
  shl %r19, %r16, 3;             // c * 8
  add %r20, %r12, %r19;
  ld.global.u64 %r20, [%r20-8];  // achar = seqA[c-1]
  add %r21, %r6, %r19;
  ld.global.u64 %r22, [%r21-8];  // diag  F[mrow-1][c-1]
  ld.global.u64 %r23, [%r21];    // up    F[mrow-1][c]
  add %r24, %r4, %r19;
  ld.global.u64 %r28, [%r24-8];  // left  F[mrow][c-1]
  setp.eq.s64 %p5, %r20, %r9;
  selp %r29, %r25, %r26, %p5;    // match ? M : MM
  add %r22, %r22, %r29;
  sub %r23, %r23, %r27;
  sub %r28, %r28, %r27;
  max %r22, %r22, %r23;
  max %r22, %r22, %r28;
  st.global.u64 [%r24], %r22;    // F[mrow][c]
  membar;
  st.global.u64 [%r8], %r17;     // publish progress[mrow] = c+1
NEXT:
  add %r15, %r15, 1;
  bra.uni STEP;
)";

class NwHarness : public KernelHarness {
  public:
    NwHarness(const NwParams &p, bool reverse)
        : KernelHarness(reverse ? "NW2" : "NW1"), p_(p),
          reverse_(reverse), prog_(assemble(kNwSource))
    {
    }

    void
    setup(Gpu &gpu) override
    {
        const unsigned n = p_.n;
        seqA_.resize(n);
        seqB_.resize(n);
        XorShift64 rng(p_.seed);
        for (unsigned i = 0; i < n; ++i) {
            seqA_[i] = static_cast<Word>(rng.next() % 4);
            seqB_[i] = static_cast<Word>(rng.next() % 4);
        }
        // NW2 sweeps the grid in the opposite direction: it aligns the
        // reversed sequences, so its wavefront travels bottom-right to
        // top-left of the original matrix.
        if (reverse_) {
            std::reverse(seqA_.begin(), seqA_.end());
            std::reverse(seqB_.begin(), seqB_.end());
        }

        const unsigned words = (n + 1) * (n + 1);
        fAddr_ = gpu.malloc(std::uint64_t{words} * 8);
        progressAddr_ = gpu.malloc((n + 1) * 8);
        seqAAddr_ = gpu.malloc(n * 8);
        seqBAddr_ = gpu.malloc(n * 8);
        gpu.memcpyToDevice(seqAAddr_, seqA_.data(), n * 8);
        gpu.memcpyToDevice(seqBAddr_, seqB_.data(), n * 8);

        // Boundary conditions: F[0][c] = -c*gap, F[r][0] = -r*gap; row 0
        // is fully final, every other row has published only column 0.
        std::vector<Word> boundary(n + 1);
        for (unsigned c = 0; c <= n; ++c)
            boundary[c] = -static_cast<Word>(c) * p_.gapPenalty;
        gpu.memcpyToDevice(fAddr_, boundary.data(), (n + 1) * 8);
        for (unsigned r = 1; r <= n; ++r) {
            Word v = -static_cast<Word>(r) * p_.gapPenalty;
            gpu.memcpyToDevice(fAddr_ + std::uint64_t{r} * (n + 1) * 8, &v,
                               8);
        }
        std::vector<Word> progress(n + 1, 1);
        progress[0] = n + 1;
        gpu.memcpyToDevice(progressAddr_, progress.data(), (n + 1) * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        unsigned ctas = (p_.n + p_.threadsPerCta - 1) / p_.threadsPerCta;
        return {LaunchSpec{
            &prog_, Dim3{ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(fAddr_), static_cast<Word>(progressAddr_),
             static_cast<Word>(seqAAddr_), static_cast<Word>(seqBAddr_),
             static_cast<Word>(p_.n), p_.matchScore, p_.mismatchPenalty,
             p_.gapPenalty}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        const unsigned n = p_.n;
        std::vector<Word> device((n + 1) * (n + 1));
        gpu.memcpyFromDevice(device.data(), fAddr_, device.size() * 8);
        std::vector<Word> host = nwReference(
            seqA_, seqB_, p_.matchScore, p_.mismatchPenalty, p_.gapPenalty);
        return device == host;
    }

    std::vector<const Program *>
    programs() const override
    {
        return {&prog_};
    }

  private:
    NwParams p_;
    bool reverse_;
    Program prog_;
    std::vector<Word> seqA_;
    std::vector<Word> seqB_;
    Addr fAddr_ = 0;
    Addr progressAddr_ = 0;
    Addr seqAAddr_ = 0;
    Addr seqBAddr_ = 0;
};

}  // namespace

std::unique_ptr<KernelHarness>
makeNw(const NwParams &p, bool reverse)
{
    return std::make_unique<NwHarness>(p, reverse);
}

}  // namespace bowsim
