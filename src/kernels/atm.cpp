#include "src/kernels/atm.hpp"

#include <vector>

#include "src/common/log.hpp"
#include "src/isa/assembler.hpp"

namespace bowsim {

namespace {

constexpr const char *kAtmSource = R"(
.kernel atm
.param 5
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  mov %r2, %nctaid;
  mul %r2, %r2, %r1;
  ld.param.u64 %r10, [0];        // locks
  ld.param.u64 %r11, [8];        // balances
  ld.param.u64 %r12, [16];       // src account ids
  ld.param.u64 %r13, [24];       // dst account ids
  ld.param.u64 %r14, [32];       // numTransactions
  mov %r3, %r0;
OUTER:
  setp.ge.s64 %p0, %r3, %r14;
  @%p0 exit;
  shl %r4, %r3, 3;
  add %r5, %r12, %r4;
  ld.global.u64 %r5, [%r5];      // src
  add %r6, %r13, %r4;
  ld.global.u64 %r6, [%r6];      // dst
  // Locks are taken in (min, max) account order: a global lock order
  // guarantees progress under deterministic lock-step retries while
  // keeping the Fig. 6a try/release-and-retry shape.
  min %r25, %r5, %r6;
  max %r26, %r5, %r6;
  shl %r7, %r25, 3;
  add %r7, %r10, %r7;            // &lock[lo]
  shl %r8, %r26, 3;
  add %r8, %r10, %r8;            // &lock[hi]
  shl %r17, %r5, 3;
  add %r17, %r11, %r17;          // &balance[src]
  shl %r18, %r6, 3;
  add %r18, %r11, %r18;          // &balance[dst]
  mov %r20, 0;                   // transaction_done = false
.annot sync_begin
LOOP:
  .annot acquire
  atom.global.cas.b64 %r15, [%r7], 0, 1;   // try lock 1
  setp.ne.s64 %p1, %r15, 0;
  @%p1 bra SKIP;
  .annot acquire
  atom.global.cas.b64 %r16, [%r8], 0, 1;   // try lock 2
  setp.ne.s64 %p2, %r16, 0;
  @%p2 bra REL1;
.annot sync_end
  membar;
  ld.global.u64 %r21, [%r17];
  sub %r21, %r21, 1;
  st.global.u64 [%r17], %r21;    // balance[src] -= 1
  ld.global.u64 %r22, [%r18];
  add %r22, %r22, 1;
  st.global.u64 [%r18], %r22;    // balance[dst] += 1
  mov %r20, 1;
  membar;
.annot sync_begin
  atom.global.exch.b64 %r23, [%r8], 0;     // release lock 2
REL1:
  atom.global.exch.b64 %r24, [%r7], 0;     // release lock 1
SKIP:
  setp.eq.s64 %p3, %r20, 0;
  .annot spin
  @%p3 bra LOOP;
.annot sync_end
  add %r3, %r3, %r2;
  bra.uni OUTER;
)";

class AtmHarness : public KernelHarness {
  public:
    explicit AtmHarness(const AtmParams &p)
        : KernelHarness("ATM"), p_(p), prog_(assemble(kAtmSource))
    {
        if (p_.accounts < 2)
            fatal("ATM needs at least two accounts");
    }

    void
    setup(Gpu &gpu) override
    {
        src_.resize(p_.transactions);
        dst_.resize(p_.transactions);
        XorShift64 rng(p_.seed);
        for (unsigned t = 0; t < p_.transactions; ++t) {
            std::uint64_t a = rng.next() % p_.accounts;
            std::uint64_t b = rng.next() % p_.accounts;
            if (b == a)
                b = (b + 1) % p_.accounts;  // src != dst (no self-deadlock)
            src_[t] = static_cast<Word>(a);
            dst_[t] = static_cast<Word>(b);
        }
        locksAddr_ = gpu.malloc(p_.accounts * 8);
        balancesAddr_ = gpu.malloc(p_.accounts * 8);
        srcAddr_ = gpu.malloc(p_.transactions * 8);
        dstAddr_ = gpu.malloc(p_.transactions * 8);
        std::vector<Word> init(p_.accounts, kInitialBalance);
        gpu.memcpyToDevice(balancesAddr_, init.data(), p_.accounts * 8);
        gpu.memcpyToDevice(srcAddr_, src_.data(), p_.transactions * 8);
        gpu.memcpyToDevice(dstAddr_, dst_.data(), p_.transactions * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        return {LaunchSpec{
            &prog_, Dim3{p_.ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(locksAddr_), static_cast<Word>(balancesAddr_),
             static_cast<Word>(srcAddr_), static_cast<Word>(dstAddr_),
             static_cast<Word>(p_.transactions)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        std::vector<Word> balances(p_.accounts);
        gpu.memcpyFromDevice(balances.data(), balancesAddr_,
                             p_.accounts * 8);
        std::vector<Word> expected(p_.accounts, kInitialBalance);
        for (unsigned t = 0; t < p_.transactions; ++t) {
            --expected[src_[t]];
            ++expected[dst_[t]];
        }
        if (balances != expected)
            return false;
        std::vector<Word> locks(p_.accounts);
        gpu.memcpyFromDevice(locks.data(), locksAddr_, p_.accounts * 8);
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
    static constexpr Word kInitialBalance = 1000;

    AtmParams p_;
    Program prog_;
    std::vector<Word> src_;
    std::vector<Word> dst_;
    Addr locksAddr_ = 0;
    Addr balancesAddr_ = 0;
    Addr srcAddr_ = 0;
    Addr dstAddr_ = 0;
};

}  // namespace

std::unique_ptr<KernelHarness>
makeAtm(const AtmParams &p)
{
    return std::make_unique<AtmHarness>(p);
}

}  // namespace bowsim
