#include "src/kernels/hashtable.hpp"

#include <algorithm>
#include <vector>

#include "src/common/log.hpp"
#include "src/isa/assembler.hpp"

namespace bowsim {

namespace {

/** Fig. 1a kernel. Node layout: {key, next} (16 bytes). */
constexpr const char *kHtSource = R"(
.kernel ht_insert
.param 6
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;       // global thread id
  mov %r2, %nctaid;
  mul %r2, %r2, %r1;             // stride = total threads
  ld.param.u64 %r10, [0];        // keys
  ld.param.u64 %r11, [8];        // locks
  ld.param.u64 %r12, [16];       // heads
  ld.param.u64 %r13, [24];       // nodes
  ld.param.u64 %r14, [32];       // buckets
  ld.param.u64 %r15, [40];       // numKeys
  mov %r3, %r0;                  // i = tid
OUTER:
  setp.ge.s64 %p0, %r3, %r15;
  @%p0 exit;
  shl %r4, %r3, 3;
  add %r4, %r10, %r4;
  ld.global.u64 %r5, [%r4];      // key
  rem %r6, %r5, %r14;            // bucket
  shl %r6, %r6, 3;
  add %r7, %r11, %r6;            // &locks[bucket]
  add %r8, %r12, %r6;            // &heads[bucket]
  shl %r9, %r3, 4;
  add %r9, %r13, %r9;            // &nodes[i]
  st.global.u64 [%r9], %r5;      // node.key = key
  mov %r20, 0;                   // done = false
.annot sync_begin
LOOP:
  .annot acquire
  atom.global.cas.b64 %r16, [%r7], 0, 1;
  setp.ne.s64 %p1, %r16, 0;
  @%p1 bra SKIP;
.annot sync_end
  membar;
  ld.global.u64 %r17, [%r8];     // head
  st.global.u64 [%r9+8], %r17;   // node.next = head
  st.global.u64 [%r8], %r9;      // head = node
  mov %r20, 1;                   // done = true
  membar;
.annot sync_begin
  atom.global.exch.b64 %r18, [%r7], 0;
SKIP:
  setp.eq.s64 %p2, %r20, 0;
  .annot spin
  @%p2 bra LOOP;
.annot sync_end
  add %r3, %r3, %r2;
  bra.uni OUTER;
)";

/**
 * Fig. 3 variant: the same kernel with the software back-off delay code
 * of Fig. 3a on the failure path (param[6] = DELAY_FACTOR; threads wait
 * DELAY_FACTOR * ctaid cycles before retrying the acquire).
 */
constexpr const char *kHtSwDelaySource = R"(
.kernel ht_insert_swdelay
.param 7
  mov %r0, %ctaid;
  mov %r1, %ntid;
  mad %r0, %r0, %r1, %tid;
  mov %r2, %nctaid;
  mul %r2, %r2, %r1;
  ld.param.u64 %r10, [0];
  ld.param.u64 %r11, [8];
  ld.param.u64 %r12, [16];
  ld.param.u64 %r13, [24];
  ld.param.u64 %r14, [32];
  ld.param.u64 %r15, [40];
  ld.param.u64 %r19, [48];       // delay factor
  mov %r26, %ctaid;
  mul %r19, %r19, %r26;          // threshold = factor * ctaid
  mov %r3, %r0;
OUTER:
  setp.ge.s64 %p0, %r3, %r15;
  @%p0 exit;
  shl %r4, %r3, 3;
  add %r4, %r10, %r4;
  ld.global.u64 %r5, [%r4];
  rem %r6, %r5, %r14;
  shl %r6, %r6, 3;
  add %r7, %r11, %r6;
  add %r8, %r12, %r6;
  shl %r9, %r3, 4;
  add %r9, %r13, %r9;
  st.global.u64 [%r9], %r5;
  mov %r20, 0;
.annot sync_begin
LOOP:
  .annot acquire
  atom.global.cas.b64 %r16, [%r7], 0, 1;
  setp.ne.s64 %p1, %r16, 0;
  @%p1 bra BACKOFF;
.annot sync_end
  membar;
  ld.global.u64 %r17, [%r8];
  st.global.u64 [%r9+8], %r17;
  st.global.u64 [%r8], %r9;
  mov %r20, 1;
  membar;
.annot sync_begin
  atom.global.exch.b64 %r18, [%r7], 0;
  bra.uni SKIP;
BACKOFF:
  clock %r21;                    // start = clock()
DELAY:
  clock %r22;                    // now = clock()
  sub %r23, %r22, %r21;
  setp.lt.s64 %p3, %r23, %r19;   // cycles < threshold?
  @%p3 bra DELAY;
SKIP:
  setp.eq.s64 %p2, %r20, 0;
  .annot spin
  @%p2 bra LOOP;
.annot sync_end
  add %r3, %r3, %r2;
  bra.uni OUTER;
)";

class HashtableHarness : public KernelHarness {
  public:
    explicit HashtableHarness(const HashtableParams &p)
        : KernelHarness("HT"), p_(p),
          prog_(assemble(p.delayFactor > 0 ? kHtSwDelaySource : kHtSource))
    {
        if (p_.buckets == 0 || p_.insertions == 0)
            fatal("HT: buckets and insertions must be positive");
    }

    void
    setup(Gpu &gpu) override
    {
        keys_ = hashtableKeys(p_.insertions, p_.seed);
        keysAddr_ = gpu.malloc(p_.insertions * 8);
        locksAddr_ = gpu.malloc(p_.buckets * 8);
        headsAddr_ = gpu.malloc(p_.buckets * 8);
        nodesAddr_ = gpu.malloc(std::uint64_t{p_.insertions} * 16);
        if (gpu.config().numDevices > 1)
            shardKeysByHome(gpu.config().numDevices);
        gpu.memcpyToDevice(keysAddr_, keys_.data(), p_.insertions * 8);
    }

    /**
     * Multi-device layout (docs/PERF.md, "Device sharding"): reorders
     * the key array so each position is consumed by a thread on the
     * device that homes its bucket (the heads line — the bucket's lock
     * atomics are device-scope and resolve locally regardless). The
     * key multiset is unchanged — validate() is order-blind — only the
     * work-to-device assignment moves, which keeps the bucket-chain
     * traffic device-local instead of paying the inter-device link on
     * nearly every insert.
     */
    void
    shardKeysByHome(unsigned n)
    {
        const unsigned total_threads = p_.ctas * p_.threadsPerCta;
        const unsigned chunk = (p_.ctas + n - 1) / n;
        std::vector<std::vector<Word>> pools(n);
        for (Word k : keys_) {
            const auto bucket =
                static_cast<Addr>(static_cast<std::uint64_t>(k) %
                                  p_.buckets);
            pools[homeDeviceOf(headsAddr_ + 8 * bucket, n)].push_back(k);
        }
        // Refill positions in order, each from its owner's pool (FIFO,
        // so the shuffle is deterministic). Key index i is processed
        // by global thread i % total_threads (the kernel strides), and
        // that thread's CTA belongs to device cta / chunk.
        std::vector<std::size_t> next(n, 0);
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            const unsigned cta =
                static_cast<unsigned>(i % total_threads) /
                p_.threadsPerCta;
            unsigned d =
                std::min(static_cast<unsigned>(cta / chunk), n - 1);
            if (next[d] == pools[d].size()) {
                // This device's pool ran dry; steal from the first
                // device that still has keys (the imbalance is
                // bounded by the hash skew).
                for (d = 0; next[d] == pools[d].size(); ++d) {}
            }
            keys_[i] = pools[d][next[d]++];
        }
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        std::vector<Word> params = {
            static_cast<Word>(keysAddr_),  static_cast<Word>(locksAddr_),
            static_cast<Word>(headsAddr_), static_cast<Word>(nodesAddr_),
            static_cast<Word>(p_.buckets),
            static_cast<Word>(p_.insertions)};
        if (p_.delayFactor > 0)
            params.push_back(static_cast<Word>(p_.delayFactor));
        return {LaunchSpec{&prog_, Dim3{p_.ctas, 1, 1},
                           Dim3{p_.threadsPerCta, 1, 1}, params}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        // Every key must appear exactly once, in the right bucket chain:
        // node i holds key i (the kernel stores it before linking), each
        // node is reached once, and every lock is released. One bulk
        // readback per array; a link must point at a node of the pool.
        const std::uint64_t num_nodes = p_.insertions;
        std::vector<Word> heads(p_.buckets);
        std::vector<Word> locks(p_.buckets);
        std::vector<Word> nodes(2 * num_nodes);  // {key, next} pairs
        gpu.memcpyFromDevice(heads.data(), headsAddr_, p_.buckets * 8);
        gpu.memcpyFromDevice(locks.data(), locksAddr_, p_.buckets * 8);
        gpu.memcpyFromDevice(nodes.data(), nodesAddr_, num_nodes * 16);
        std::vector<bool> visited(num_nodes);
        std::uint64_t found = 0;
        for (unsigned b = 0; b < p_.buckets; ++b) {
            if (locks[b] != 0)
                return false;
            for (Addr link = static_cast<Addr>(heads[b]); link != 0;) {
                // Unsigned: a link below the pool wraps to a huge offset.
                const Addr offset = link - nodesAddr_;
                if (offset % 16 != 0 || offset / 16 >= num_nodes)
                    return false;  // not a node of the pool
                const std::uint64_t i = offset / 16;
                if (visited[i])
                    return false;  // cycle or double-link
                visited[i] = true;
                const Word key = nodes[2 * i];
                if (key != keys_[i] ||
                    static_cast<std::uint64_t>(key) % p_.buckets != b)
                    return false;  // wrong key, or key in the wrong bucket
                ++found;
                link = static_cast<Addr>(nodes[2 * i + 1]);
            }
        }
        return found == num_nodes;
    }

    std::vector<const Program *>
    programs() const override
    {
        return {&prog_};
    }

  private:
    HashtableParams p_;
    Program prog_;
    std::vector<Word> keys_;
    Addr keysAddr_ = 0;
    Addr locksAddr_ = 0;
    Addr headsAddr_ = 0;
    Addr nodesAddr_ = 0;
};

}  // namespace

std::vector<Word>
hashtableKeys(unsigned count, std::uint64_t seed)
{
    std::vector<Word> keys(count);
    XorShift64 rng(seed);
    for (Word &k : keys)
        k = static_cast<Word>((rng.next() >> 16) & 0x7fffffff);
    return keys;
}

std::unique_ptr<KernelHarness>
makeHashtable(const HashtableParams &p)
{
    return std::make_unique<HashtableHarness>(p);
}

}  // namespace bowsim
