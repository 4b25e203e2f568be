#include "src/kernels/syncfree.hpp"

#include <algorithm>
#include <vector>

#include "src/common/log.hpp"
#include "src/isa/assembler.hpp"

namespace bowsim {

namespace {

std::vector<Word>
randomWords(unsigned count, std::uint64_t seed, Word modulo)
{
    std::vector<Word> v(count);
    XorShift64 rng(seed);
    for (auto &w : v)
        w = static_cast<Word>(rng.next() % static_cast<std::uint64_t>(modulo));
    return v;
}

// ---------------------------------------------------------------- VEC --

/** Rodinia-style: each thread sums a contiguous chunk with a unit-stride
 *  loop (params: [3] = chunk length). */
constexpr const char *kVecSource = R"(
.kernel vec_add
.param 4
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  ld.param.u64 %r10, [0];
  ld.param.u64 %r11, [8];
  ld.param.u64 %r12, [16];
  ld.param.u64 %r13, [24];       // chunk
  mul %r3, %r0, %r13;            // i = tid * chunk
  add %r14, %r3, %r13;           // end
LOOP:
  setp.ge.s64 %p0, %r3, %r14;
  @%p0 exit;
  shl %r4, %r3, 3;
  add %r5, %r10, %r4;
  ld.global.u64 %r5, [%r5];
  add %r6, %r11, %r4;
  ld.global.u64 %r6, [%r6];
  add %r5, %r5, %r6;
  add %r7, %r12, %r4;
  st.global.u64 [%r7], %r5;
  add %r3, %r3, 1;
  bra.uni LOOP;
)";

class VecHarness : public KernelHarness {
  public:
    explicit VecHarness(const SyncFreeParams &p)
        : KernelHarness("VEC"), p_(p), prog_(assemble(kVecSource))
    {
        unsigned threads = p_.ctas * p_.threadsPerCta;
        chunk_ = std::max(1u, p_.elements / threads);
        p_.elements = chunk_ * threads;  // exact coverage
    }

    void
    setup(Gpu &gpu) override
    {
        a_ = randomWords(p_.elements, p_.seed, 1 << 20);
        b_ = randomWords(p_.elements, p_.seed ^ 0xabcdef, 1 << 20);
        aAddr_ = gpu.malloc(p_.elements * 8);
        bAddr_ = gpu.malloc(p_.elements * 8);
        cAddr_ = gpu.malloc(p_.elements * 8);
        gpu.memcpyToDevice(aAddr_, a_.data(), p_.elements * 8);
        gpu.memcpyToDevice(bAddr_, b_.data(), p_.elements * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        return {LaunchSpec{
            &prog_, Dim3{p_.ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(aAddr_), static_cast<Word>(bAddr_),
             static_cast<Word>(cAddr_), static_cast<Word>(chunk_)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        std::vector<Word> c(p_.elements);
        gpu.memcpyFromDevice(c.data(), cAddr_, p_.elements * 8);
        for (unsigned i = 0; i < p_.elements; ++i) {
            if (c[i] != a_[i] + b_[i])
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
    SyncFreeParams p_;
    Program prog_;
    unsigned chunk_ = 1;
    std::vector<Word> a_, b_;
    Addr aAddr_ = 0, bAddr_ = 0, cAddr_ = 0;
};

// ----------------------------------------------------------------- KM --

/** kmeans invert_mapping (the paper's Fig. 7c): transpose points. */
constexpr const char *kKmSource = R"(
.kernel km_invert
.param 4
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  ld.param.u64 %r10, [0];        // in  (n x m, row-major)
  ld.param.u64 %r11, [8];        // out (m x n, row-major)
  ld.param.u64 %r12, [16];       // n points
  ld.param.u64 %r13, [24];       // m features
  setp.ge.s64 %p0, %r0, %r12;
  @%p0 exit;
  mul %r4, %r0, %r13;
  shl %r4, %r4, 3;
  add %r4, %r10, %r4;            // &in[i][0]
  shl %r5, %r0, 3;
  add %r5, %r11, %r5;            // &out[0][i]
  shl %r6, %r12, 3;              // row stride of out
  mov %r20, 0;                   // j
LOOP:
  ld.global.u64 %r7, [%r4];
  st.global.u64 [%r5], %r7;
  add %r4, %r4, 8;
  add %r5, %r5, %r6;
  add %r20, %r20, 1;
  setp.lt.s64 %p4, %r20, %r13;
  @%p4 bra LOOP;
  exit;
)";

class KmHarness : public KernelHarness {
  public:
    explicit KmHarness(const SyncFreeParams &p)
        : KernelHarness("KM"), p_(p), prog_(assemble(kKmSource))
    {
        n_ = p_.ctas * p_.threadsPerCta;
        m_ = std::max(8u, p_.elements / n_);
    }

    void
    setup(Gpu &gpu) override
    {
        in_ = randomWords(n_ * m_, p_.seed, 1 << 20);
        inAddr_ = gpu.malloc(std::uint64_t{n_} * m_ * 8);
        outAddr_ = gpu.malloc(std::uint64_t{n_} * m_ * 8);
        gpu.memcpyToDevice(inAddr_, in_.data(),
                           std::uint64_t{n_} * m_ * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        return {LaunchSpec{
            &prog_, Dim3{p_.ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(inAddr_), static_cast<Word>(outAddr_),
             static_cast<Word>(n_), static_cast<Word>(m_)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        std::vector<Word> out(std::uint64_t{n_} * m_);
        gpu.memcpyFromDevice(out.data(), outAddr_, out.size() * 8);
        for (unsigned i = 0; i < n_; ++i) {
            for (unsigned j = 0; j < m_; ++j) {
                if (out[std::uint64_t{j} * n_ + i] !=
                    in_[std::uint64_t{i} * m_ + j]) {
                    return false;
                }
            }
        }
        return true;
    }

    std::vector<const Program *>
    programs() const override
    {
        return {&prog_};
    }

  private:
    SyncFreeParams p_;
    Program prog_;
    unsigned n_, m_;
    std::vector<Word> in_;
    Addr inAddr_ = 0, outAddr_ = 0;
};

// ----------------------------------------------------------------- MS --

/**
 * Merge-sort-style sampling pass: each thread scans elements
 * idx = tid, tid+256, tid+512, ... and records the maximum. The loop
 * counter advances by 256, so its low 8 bits never change — an 8-bit
 * MODULO hash cannot see it move, and MODULO DDOS falsely confirms the
 * loop branch as spin-inducing (Fig. 14).
 */
constexpr const char *kMsSource = R"(
.kernel ms_pass
.param 4
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  ld.param.u64 %r10, [0];        // data
  ld.param.u64 %r11, [8];        // out (per-thread max)
  ld.param.u64 %r12, [16];       // elements
  ld.param.u64 %r13, [24];       // total threads
  setp.ge.s64 %p0, %r0, %r13;
  @%p0 exit;
  mov %r3, %r0;                  // idx = tid (advances by 256)
  mov %r4, -1;                   // running max
LOOP:
  shl %r5, %r3, 3;
  add %r5, %r10, %r5;
  ld.global.u64 %r6, [%r5];
  max %r4, %r4, %r6;
  add %r3, %r3, 256;
  setp.lt.s64 %p1, %r3, %r12;
  @%p1 bra LOOP;
  shl %r7, %r0, 3;
  add %r7, %r11, %r7;
  st.global.u64 [%r7], %r4;
  exit;
)";

class MsHarness : public KernelHarness {
  public:
    explicit MsHarness(const SyncFreeParams &p)
        : KernelHarness("MS"), p_(p), prog_(assemble(kMsSource))
    {
        threads_ = std::min(p_.ctas * p_.threadsPerCta, 256u);
    }

    void
    setup(Gpu &gpu) override
    {
        data_ = randomWords(p_.elements, p_.seed, 1 << 24);
        dataAddr_ = gpu.malloc(p_.elements * 8);
        outAddr_ = gpu.malloc(threads_ * 8);
        gpu.memcpyToDevice(dataAddr_, data_.data(), p_.elements * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        unsigned ctas = (threads_ + p_.threadsPerCta - 1) /
                        p_.threadsPerCta;
        return {LaunchSpec{
            &prog_, Dim3{ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(dataAddr_), static_cast<Word>(outAddr_),
             static_cast<Word>(p_.elements),
             static_cast<Word>(threads_)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        std::vector<Word> out(threads_);
        gpu.memcpyFromDevice(out.data(), outAddr_, threads_ * 8);
        for (unsigned t = 0; t < threads_; ++t) {
            Word expected = -1;
            for (std::uint64_t i = t; i < p_.elements; i += 256)
                expected = std::max(expected, data_[i]);
            if (out[t] != expected)
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
    SyncFreeParams p_;
    Program prog_;
    unsigned threads_;
    std::vector<Word> data_;
    Addr dataAddr_ = 0, outAddr_ = 0;
};

// ----------------------------------------------------------------- HL --

/**
 * Heart-wall-style windowed sum whose window offset advances by 512 per
 * iteration — the paper's second MODULO false-detection case.
 */
constexpr const char *kHlSource = R"(
.kernel hl_window
.param 4
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  ld.param.u64 %r10, [0];        // data (power-of-two length)
  ld.param.u64 %r11, [8];        // out
  ld.param.u64 %r12, [16];       // mask = elements - 1
  ld.param.u64 %r13, [24];       // window span (multiple of 512)
  mov %r3, 0;                    // off (advances by 512)
  mov %r4, 0;                    // acc
LOOP:
  add %r5, %r0, %r3;
  and %r5, %r5, %r12;
  shl %r5, %r5, 3;
  add %r5, %r10, %r5;
  ld.global.u64 %r6, [%r5];
  add %r4, %r4, %r6;
  add %r3, %r3, 512;
  setp.lt.s64 %p1, %r3, %r13;
  @%p1 bra LOOP;
  shl %r7, %r0, 3;
  add %r7, %r11, %r7;
  st.global.u64 [%r7], %r4;
  exit;
)";

class HlHarness : public KernelHarness {
  public:
    explicit HlHarness(const SyncFreeParams &p)
        : KernelHarness("HL"), p_(p), prog_(assemble(kHlSource))
    {
        if ((p_.elements & (p_.elements - 1)) != 0)
            fatal("HL: elements must be a power of two");
        threads_ = p_.ctas * p_.threadsPerCta;
    }

    void
    setup(Gpu &gpu) override
    {
        data_ = randomWords(p_.elements, p_.seed ^ 0x5eed, 1 << 16);
        dataAddr_ = gpu.malloc(p_.elements * 8);
        outAddr_ = gpu.malloc(threads_ * 8);
        gpu.memcpyToDevice(dataAddr_, data_.data(), p_.elements * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        return {LaunchSpec{
            &prog_, Dim3{p_.ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(dataAddr_), static_cast<Word>(outAddr_),
             static_cast<Word>(p_.elements - 1),
             static_cast<Word>(kWindow)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        std::vector<Word> out(threads_);
        gpu.memcpyFromDevice(out.data(), outAddr_, threads_ * 8);
        for (unsigned t = 0; t < threads_; ++t) {
            Word acc = 0;
            for (Word off = 0; off < kWindow; off += 512)
                acc += data_[(t + off) & (p_.elements - 1)];
            if (out[t] != acc)
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
    static constexpr Word kWindow = 512 * 48;

    SyncFreeParams p_;
    Program prog_;
    unsigned threads_;
    std::vector<Word> data_;
    Addr dataAddr_ = 0, outAddr_ = 0;
};

// ---------------------------------------------------------------- RED --

/**
 * Shared-memory tree reduction: grid-stride accumulate, store to shared,
 * then log2(blockDim) barrier-separated halving steps; thread 0 adds the
 * block sum to the global total atomically.
 */
constexpr const char *kRedSource = R"(
.kernel reduction
.param 4
.shared 8192
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  ld.param.u64 %r10, [0];        // data
  ld.param.u64 %r11, [8];        // &total
  ld.param.u64 %r12, [16];       // elements
  ld.param.u64 %r2, [24];        // chunk per thread (unit stride)
  mul %r3, %r0, %r2;             // i = tid * chunk
  add %r13, %r3, %r2;
  min %r13, %r13, %r12;          // end
  mov %r4, 0;                    // acc
ACCUM:
  setp.ge.s64 %p0, %r3, %r13;
  @%p0 bra STORE;
  shl %r5, %r3, 3;
  add %r5, %r10, %r5;
  ld.global.u64 %r6, [%r5];
  add %r4, %r4, %r6;
  add %r3, %r3, 1;
  bra.uni ACCUM;
STORE:
  mov %r7, %tid;
  shl %r8, %r7, 3;
  st.shared.u64 [%r8], %r4;
  bar.sync;
  shr %r9, %r1, 1;               // s = blockDim / 2
TREE:
  setp.eq.s64 %p1, %r9, 0;
  @%p1 bra DONE;
  setp.ge.s64 %p2, %r7, %r9;
  @%p2 bra SKIPADD;
  add %r13, %r7, %r9;
  shl %r14, %r13, 3;
  ld.shared.u64 %r15, [%r14];
  ld.shared.u64 %r16, [%r8];
  add %r16, %r16, %r15;
  st.shared.u64 [%r8], %r16;
SKIPADD:
  bar.sync;
  shr %r9, %r9, 1;
  bra.uni TREE;
DONE:
  setp.ne.s64 %p3, %r7, 0;
  @%p3 exit;
  ld.shared.u64 %r17, [0];
  atom.global.add.b64 %r18, [%r11], %r17;
  exit;
)";

class RedHarness : public KernelHarness {
  public:
    explicit RedHarness(const SyncFreeParams &p)
        : KernelHarness("RED"), p_(p), prog_(assemble(kRedSource))
    {
        if (p_.threadsPerCta == 0 ||
            (p_.threadsPerCta & (p_.threadsPerCta - 1)) != 0) {
            fatal("RED: threadsPerCta must be a power of two");
        }
        if (p_.threadsPerCta * 8 > prog_.sharedBytes)
            fatal("RED: block too large for the shared allocation");
        unsigned threads = p_.ctas * p_.threadsPerCta;
        chunk_ = (p_.elements + threads - 1) / threads;
    }

    void
    setup(Gpu &gpu) override
    {
        data_ = randomWords(p_.elements, p_.seed ^ 0x12345, 1 << 16);
        dataAddr_ = gpu.malloc(p_.elements * 8);
        totalAddr_ = gpu.malloc(8);
        gpu.memcpyToDevice(dataAddr_, data_.data(), p_.elements * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        return {LaunchSpec{
            &prog_, Dim3{p_.ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(dataAddr_), static_cast<Word>(totalAddr_),
             static_cast<Word>(p_.elements),
             static_cast<Word>(chunk_)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        Word total = 0;
        gpu.memcpyFromDevice(&total, totalAddr_, 8);
        Word expected = 0;
        for (Word v : data_)
            expected += v;
        return total == expected;
    }

    std::vector<const Program *>
    programs() const override
    {
        return {&prog_};
    }

  private:
    SyncFreeParams p_;
    Program prog_;
    unsigned chunk_ = 1;
    std::vector<Word> data_;
    Addr dataAddr_ = 0, totalAddr_ = 0;
};

// --------------------------------------------------------------- STEN --

/** Unit-stride chunked stencil: thread t sweeps [t*chunk, (t+1)*chunk),
 *  interior points only (params: [2]=elements, [3]=chunk). */
constexpr const char *kStenSource = R"(
.kernel stencil
.param 4
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  ld.param.u64 %r10, [0];        // in
  ld.param.u64 %r11, [8];        // out
  ld.param.u64 %r12, [16];       // elements
  ld.param.u64 %r2, [24];        // chunk
  mul %r3, %r0, %r2;             // i = tid * chunk
  add %r14, %r3, %r2;            // end
  sub %r13, %r12, 1;
  min %r14, %r14, %r13;          // stay inside the interior
  max %r3, %r3, 1;
LOOP:
  setp.ge.s64 %p0, %r3, %r14;
  @%p0 exit;
  shl %r4, %r3, 3;
  add %r4, %r10, %r4;
  ld.global.u64 %r5, [%r4-8];
  ld.global.u64 %r6, [%r4];
  ld.global.u64 %r7, [%r4+8];
  add %r5, %r5, %r6;
  add %r5, %r5, %r7;
  shl %r8, %r3, 3;
  add %r8, %r11, %r8;
  st.global.u64 [%r8], %r5;
  add %r3, %r3, 1;
  bra.uni LOOP;
)";

class StenHarness : public KernelHarness {
  public:
    explicit StenHarness(const SyncFreeParams &p)
        : KernelHarness("STEN"), p_(p), prog_(assemble(kStenSource))
    {
        unsigned threads = p_.ctas * p_.threadsPerCta;
        chunk_ = (p_.elements + threads - 1) / threads;
    }

    void
    setup(Gpu &gpu) override
    {
        in_ = randomWords(p_.elements, p_.seed ^ 0x777, 1 << 20);
        inAddr_ = gpu.malloc(p_.elements * 8);
        outAddr_ = gpu.malloc(p_.elements * 8);
        gpu.memcpyToDevice(inAddr_, in_.data(), p_.elements * 8);
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        return {LaunchSpec{
            &prog_, Dim3{p_.ctas, 1, 1}, Dim3{p_.threadsPerCta, 1, 1},
            {static_cast<Word>(inAddr_), static_cast<Word>(outAddr_),
             static_cast<Word>(p_.elements),
             static_cast<Word>(chunk_)}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        std::vector<Word> out(p_.elements);
        gpu.memcpyFromDevice(out.data(), outAddr_, p_.elements * 8);
        for (unsigned i = 1; i + 1 < p_.elements; ++i) {
            if (out[i] != in_[i - 1] + in_[i] + in_[i + 1])
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
    SyncFreeParams p_;
    Program prog_;
    unsigned chunk_ = 1;
    std::vector<Word> in_;
    Addr inAddr_ = 0, outAddr_ = 0;
};

}  // namespace

std::unique_ptr<KernelHarness>
makeVecAdd(const SyncFreeParams &p)
{
    return std::make_unique<VecHarness>(p);
}

std::unique_ptr<KernelHarness>
makeKmeansInvert(const SyncFreeParams &p)
{
    return std::make_unique<KmHarness>(p);
}

std::unique_ptr<KernelHarness>
makeMergeSortPass(const SyncFreeParams &p)
{
    return std::make_unique<MsHarness>(p);
}

std::unique_ptr<KernelHarness>
makeHeartWall(const SyncFreeParams &p)
{
    return std::make_unique<HlHarness>(p);
}

std::unique_ptr<KernelHarness>
makeReduction(const SyncFreeParams &p)
{
    return std::make_unique<RedHarness>(p);
}

std::unique_ptr<KernelHarness>
makeStencil(const SyncFreeParams &p)
{
    return std::make_unique<StenHarness>(p);
}

}  // namespace bowsim
