#ifndef BOWSIM_HARNESS_FINGERPRINT_HPP
#define BOWSIM_HARNESS_FINGERPRINT_HPP

#include <cstdint>
#include <string>

#include "src/common/config.hpp"

/**
 * @file
 * Content fingerprints for sweep points (docs/BENCH.md, "Result
 * cache"). A fingerprint is a SHA-256 over a canonical serialization of
 * everything that can influence a point's statistics:
 *
 *  - a schema-version constant (kResultSchemaVersion), bumped whenever
 *    the simulator's timing behavior or the cached-record format
 *    changes, so every previously cached result is invalidated at once;
 *  - every result-relevant GpuConfig field (see hashConfig for the
 *    short, deliberately enumerated list of exclusions);
 *  - the kernel name, workload scale and kernel overrides (the
 *    overrides only when the point has some);
 *  - the assembled ISA of every program the benchmark launches —
 *    instruction stream, resource declarations and synchronization
 *    annotations — so editing a kernel's source text changes its key.
 *
 * The guarantee the result cache leans on (docs/PERF.md): two runs with
 * equal fingerprints produce bit-identical KernelStats. The determinism
 * contracts shipped with the sweep harness make that literal — results
 * are byte-identical across --jobs and idle-skip, which is exactly why
 * those execution knobs are excluded from the hash.
 */

namespace bowsim {
struct Program;
}

namespace bowsim::harness {

struct SweepPoint;

/**
 * Version of the (simulator behavior, cached-record format) pair.
 * Hashed into every fingerprint and written into every cache record:
 * bump it when a change alters simulated results without touching any
 * GpuConfig field (a scheduler fix, a latency model change, an edit to
 * a constant in src/common/config.hpp, a stats field addition), and the
 * entire cache goes cold instead of stale.
 */
constexpr std::uint32_t kResultSchemaVersion = 2;

/**
 * Incremental SHA-256 with tagged, self-delimiting field encoding: every
 * add() mixes in the tag, a type marker and the value's length, so field
 * reordering, concatenation ambiguity ("ab"+"c" vs "a"+"bc") and
 * type confusion all produce distinct digests.
 */
class FingerprintHasher {
  public:
    FingerprintHasher();

    void add(const char *tag, std::uint64_t value);
    void add(const char *tag, std::int64_t value);
    void add(const char *tag, unsigned value);
    void add(const char *tag, bool value);
    /** Hashes the exact bit pattern, so -0.0 and 0.0 differ. */
    void add(const char *tag, double value);
    void add(const char *tag, const std::string &value);

    /** Finalizes and returns the 64-hex-digit digest. Call once. */
    std::string hex();

  private:
    void update(const void *data, std::size_t len);

    std::uint32_t state_[8];
    std::uint8_t buf_[64];
    std::size_t buffered_ = 0;
    std::uint64_t total_ = 0;
    bool finalized_ = false;
};

/**
 * Hashes every result-relevant GpuConfig field into @p h. The only
 * exclusions are the execution knobs whose non-effect on results is
 * contractual and differentially tested (docs/PERF.md): idleSkip and
 * metricsInterval. Everything else — including fields that only gate
 * optional stats collection (collectStallBreakdown, collectSpinCycles),
 * since they change what statsToJson emits — is included. A field-coverage guard in fingerprint.cpp fails the build
 * when GpuConfig grows without this function being revisited.
 */
void hashConfig(FingerprintHasher &h, const GpuConfig &cfg);

/** Hashes one assembled program: name, resource declarations, the full
 *  instruction stream (every field, numerically — not the disassembly,
 *  which elides reconvergence PCs) and the sync annotations. */
void hashProgram(FingerprintHasher &h, const Program &prog);

/** Whether and how a sweep point is content-addressable. */
struct PointKey {
    bool cacheable = false;
    /** 64-hex-digit digest; empty when !cacheable. */
    std::string hash;
    /** Human-readable reason when !cacheable. */
    std::string reason;
};

/**
 * Computes @p point's fingerprint:
 *  - registry points hash (schema version, config, scale, kernel, the
 *    overrides when there are any, and the assembled programs of
 *    makeBenchmark(kernel, scale, params));
 *  - gpuBody points are not cacheable (the runner counts them as
 *    bypassed and always simulates them).
 * Side outputs — the trace (tracePath), the metrics series
 * (metricsPath), the sync report (syncReportPath) and --profile's sync
 * profiler (syncProfile) — are the runner's concern: such points get a
 * key here but are bypassed at dispatch, because a cache hit would not
 * regenerate them.
 */
PointKey fingerprintPoint(const SweepPoint &point);

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_FINGERPRINT_HPP
