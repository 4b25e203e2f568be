#include "src/harness/fingerprint.hpp"

#include <cstring>

#include "src/common/log.hpp"
#include "src/harness/sweep.hpp"
#include "src/isa/program.hpp"
#include "src/kernels/registry.hpp"

namespace bowsim::harness {

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4). Self-contained so the cache has no external
// dependencies; the hash only needs to be stable and collision-resistant
// for content addressing, not cryptographically current.
// ---------------------------------------------------------------------

namespace {

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t
rotr(std::uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

void
sha256Block(std::uint32_t state[8], const std::uint8_t block[64])
{
    std::uint32_t w[64];
    for (unsigned i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t{block[i * 4]} << 24) |
               (std::uint32_t{block[i * 4 + 1]} << 16) |
               (std::uint32_t{block[i * 4 + 2]} << 8) |
               std::uint32_t{block[i * 4 + 3]};
    }
    for (unsigned i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (unsigned i = 0; i < 64; ++i) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

}  // namespace

FingerprintHasher::FingerprintHasher()
{
    static constexpr std::uint32_t init[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    std::memcpy(state_, init, sizeof state_);
}

void
FingerprintHasher::update(const void *data, std::size_t len)
{
    if (finalized_)
        panic("FingerprintHasher: update after hex()");
    const auto *p = static_cast<const std::uint8_t *>(data);
    total_ += len;
    while (len > 0) {
        std::size_t take = 64 - buffered_;
        if (take > len)
            take = len;
        std::memcpy(buf_ + buffered_, p, take);
        buffered_ += take;
        p += take;
        len -= take;
        if (buffered_ == 64) {
            sha256Block(state_, buf_);
            buffered_ = 0;
        }
    }
}

namespace {

/** Tagged-field framing: tag NUL typechar, then a fixed-width payload. */
enum : char {
    kTypeU64 = 'u',
    kTypeI64 = 'i',
    kTypeBool = 'b',
    kTypeF64 = 'f',
    kTypeStr = 's',
};

}  // namespace

void
FingerprintHasher::add(const char *tag, std::uint64_t value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeU64;
    update(&t, 1);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(value >> (8 * i));
    update(b, sizeof b);
}

void
FingerprintHasher::add(const char *tag, std::int64_t value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeI64;
    update(&t, 1);
    auto u = static_cast<std::uint64_t>(value);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(u >> (8 * i));
    update(b, sizeof b);
}

void
FingerprintHasher::add(const char *tag, unsigned value)
{
    add(tag, static_cast<std::uint64_t>(value));
}

void
FingerprintHasher::add(const char *tag, bool value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeBool;
    update(&t, 1);
    std::uint8_t b = value ? 1 : 0;
    update(&b, 1);
}

void
FingerprintHasher::add(const char *tag, double value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeF64;
    update(&t, 1);
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    update(b, sizeof b);
}

void
FingerprintHasher::add(const char *tag, const std::string &value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeStr;
    update(&t, 1);
    // Length prefix keeps adjacent strings self-delimiting.
    add("len", static_cast<std::uint64_t>(value.size()));
    update(value.data(), value.size());
}

std::string
FingerprintHasher::hex()
{
    if (finalized_)
        panic("FingerprintHasher: hex() called twice");
    const std::uint64_t bits = total_ * 8;
    std::uint8_t pad = 0x80;
    update(&pad, 1);
    std::uint8_t zero = 0;
    while (buffered_ != 56)
        update(&zero, 1);
    std::uint8_t len[8];
    for (int i = 0; i < 8; ++i)
        len[i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
    update(len, sizeof len);
    finalized_ = true;

    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint32_t word : state_) {
        for (int shift = 28; shift >= 0; shift -= 4)
            out += digits[(word >> shift) & 0xf];
    }
    return out;
}

// ---------------------------------------------------------------------
// Canonical GpuConfig serialization.
// ---------------------------------------------------------------------

/*
 * Field-coverage guard. If this assertion fires, GpuConfig (or one of
 * its nested structs) gained, lost or resized a field. A new field that
 * can influence simulated results MUST be added to hashConfig() below
 * AND to configToJson() (src/harness/sweep.cpp) before updating the
 * expected size — otherwise two configurations that differ in the new
 * field would hash to the same cache key and the result cache would
 * serve STALE statistics for one of them. That failure mode is silent
 * at run time (the cached record looks perfectly valid), which is why
 * the guard is structural: growing the struct breaks the build until a
 * human re-audits the canonical serializations. Execution knobs proven
 * result-neutral (see hashConfig) may be excluded from the hash, but
 * the exclusion must be explicit and the size below still updated.
 */
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(GpuConfig) == 232 && sizeof(BowsConfig) == 40 &&
                  sizeof(DdosConfig) == 20 && sizeof(CacheConfig) == 16,
              "GpuConfig layout changed: update hashConfig() and "
              "configToJson() for any new result-relevant field, then "
              "update these expected sizes (see the stale-cache hazard "
              "comment above)");
#endif

namespace {

void
hashCache(FingerprintHasher &h, const char *tag, const CacheConfig &c)
{
    h.add(tag, std::string("cache"));
    h.add("size_bytes", c.sizeBytes);
    h.add("ways", c.ways);
}

}  // namespace

void
hashConfig(FingerprintHasher &h, const GpuConfig &cfg)
{
    h.add("schema", static_cast<std::uint64_t>(kResultSchemaVersion));
    h.add("name", cfg.name);
    h.add("num_cores", cfg.numCores);
    h.add("max_threads_per_core", cfg.maxThreadsPerCore);
    h.add("num_regs_per_core", cfg.numRegsPerCore);
    h.add("num_schedulers_per_core", cfg.numSchedulersPerCore);
    h.add("scheduler", std::string(toString(cfg.scheduler)));
    h.add("gto_rotate_period", cfg.gtoRotatePeriod);

    h.add("bows_enabled", cfg.bows.enabled);
    h.add("bows_deprioritize", cfg.bows.deprioritize);
    h.add("bows_delay_limit", cfg.bows.delayLimit);
    h.add("bows_adaptive", cfg.bows.adaptive);
    h.add("bows_min_limit", cfg.bows.minLimit);
    h.add("bows_max_limit", cfg.bows.maxLimit);

    h.add("ddos_hash", std::string(toString(cfg.ddos.hash)));
    h.add("ddos_hash_bits", cfg.ddos.hashBits);
    h.add("ddos_history_length", cfg.ddos.historyLength);
    h.add("ddos_confidence_threshold", cfg.ddos.confidenceThreshold);
    h.add("ddos_time_share", cfg.ddos.timeShare);

    h.add("spin_detect", std::string(toString(cfg.spinDetect)));

    hashCache(h, "l1d", cfg.l1d);
    h.add("l1_mshrs", cfg.l1Mshrs);
    hashCache(h, "l2", cfg.l2);
    h.add("num_l2_banks", cfg.numL2Banks);
    h.add("l2_hit_latency", cfg.l2HitLatency);
    h.add("dram_latency", cfg.dramLatency);
    h.add("dram_service_period", cfg.dramServicePeriod);
    h.add("atomic_service_period", cfg.atomicServicePeriod);

    h.add("core_clock_mhz", cfg.coreClockMhz);
    h.add("watchdog_cycles", cfg.watchdogCycles);

    // Device/system split: the device count changes CTA placement and
    // address homing, so a numDevices=1 record must not be served to a
    // numDevices=2 request and vice versa.
    h.add("num_devices", cfg.numDevices);

    // Stats-collection gates change what statsToJson emits (stall
    // tables, spin-cycle gauge), so they are result-relevant even
    // though they never alter timing.
    h.add("collect_stall_breakdown", cfg.collectStallBreakdown);
    h.add("collect_spin_cycles", cfg.collectSpinCycles);

    // Deliberately excluded — execution knobs whose non-effect on
    // results is contractual and locked in by the differential suites
    // (docs/PERF.md): idleSkip (SkipEquivalence) and metricsInterval
    // (inert without an attached sampler; sampler points bypass the
    // cache anyway). Excluding them lets a cache warmed with idle-skip
    // on serve a --no-skip run.

    h.add("exec_mode", std::string(toString(cfg.execMode)));
}

// ---------------------------------------------------------------------
// Program serialization.
// ---------------------------------------------------------------------

namespace {

void
hashOperand(FingerprintHasher &h, const char *tag, const Operand &op)
{
    h.add(tag, static_cast<std::uint64_t>(op.kind));
    h.add("idx", static_cast<std::int64_t>(op.index));
    h.add("imm", static_cast<std::int64_t>(op.imm));
}

void
hashPcSet(FingerprintHasher &h, const char *tag, const std::set<Pc> &pcs)
{
    h.add(tag, static_cast<std::uint64_t>(pcs.size()));
    for (Pc pc : pcs)
        h.add("pc", static_cast<std::uint64_t>(pc));
}

}  // namespace

void
hashProgram(FingerprintHasher &h, const Program &prog)
{
    h.add("program", prog.name);
    h.add("num_regs", prog.numRegs);
    h.add("num_preds", prog.numPreds);
    h.add("shared_bytes", prog.sharedBytes);
    h.add("num_params", prog.numParams);
    h.add("length", static_cast<std::uint64_t>(prog.code.size()));
    for (const Instruction &inst : prog.code) {
        // Every semantic field, numerically: the disassembly elides
        // reconvergence PCs and hazard metadata, and a lossy rendering
        // is exactly the kind of hole a content hash must not have.
        // (line and the precomputed hazard masks are diagnostics /
        // derived state and are skipped.)
        h.add("op", static_cast<std::uint64_t>(inst.op));
        h.add("cmp", static_cast<std::uint64_t>(inst.cmp));
        h.add("space", static_cast<std::uint64_t>(inst.space));
        h.add("atom", static_cast<std::uint64_t>(inst.atom));
        h.add("scope", static_cast<std::uint64_t>(inst.scope));
        h.add("size", inst.size);
        h.add("guard", static_cast<std::int64_t>(inst.guard));
        h.add("guard_neg", inst.guardNegate);
        h.add("uniform", inst.uniform);
        h.add("volatile", inst.isVolatile);
        hashOperand(h, "dst", inst.dst);
        hashOperand(h, "src0", inst.src[0]);
        hashOperand(h, "src1", inst.src[1]);
        hashOperand(h, "src2", inst.src[2]);
        h.add("mem_offset", static_cast<std::int64_t>(inst.memOffset));
        h.add("target", static_cast<std::uint64_t>(inst.target));
        h.add("reconv", static_cast<std::uint64_t>(inst.reconvergence));
    }
    hashPcSet(h, "spin_branches", prog.sync.spinBranches);
    hashPcSet(h, "lock_acquires", prog.sync.lockAcquires);
    hashPcSet(h, "wait_checks", prog.sync.waitChecks);
    hashPcSet(h, "sync_region", prog.sync.syncRegion);
}

// ---------------------------------------------------------------------
// Point fingerprints.
// ---------------------------------------------------------------------

PointKey
fingerprintPoint(const SweepPoint &point)
{
    PointKey key;
    if (point.gpuBody) {
        key.reason = "gpuBody closures always simulate";
        return key;
    }
    FingerprintHasher h;
    hashConfig(h, point.cfg);
    h.add("scale", point.scale);
    h.add("kernel", point.kernel);
    // Hashed only when present, so points without overrides keep the
    // keys they had before overrides existed.
    if (!point.params.empty()) {
        h.add("num_params", static_cast<std::uint64_t>(point.params.size()));
        for (const auto &[name, value] : point.params) {
            h.add("param", name);
            h.add("value", value);
        }
    }
    try {
        // Constructors assemble their programs (setup() only touches
        // device memory), so the ISA content is available without a
        // Gpu. An unresolvable kernel or a rejected override is not
        // cacheable — the run itself will fail and failures are never
        // cached.
        auto harness = makeBenchmark(point.kernel, point.scale, point.params);
        const auto progs = harness->programs();
        h.add("num_programs", static_cast<std::uint64_t>(progs.size()));
        for (const Program *p : progs)
            hashProgram(h, *p);
    } catch (const FatalError &e) {
        key.reason = std::string("kernel not fingerprintable: ") + e.what();
        return key;
    }
    key.cacheable = true;
    key.hash = h.hex();
    return key;
}

}  // namespace bowsim::harness
