#ifndef BOWSIM_HARNESS_RESULT_CACHE_HPP
#define BOWSIM_HARNESS_RESULT_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <string>

#include "src/stats/stats.hpp"

/**
 * @file
 * Persistent, content-addressed sweep result cache (docs/BENCH.md,
 * "Result cache").
 *
 * Layout of a cache directory:
 *
 *   <dir>/objects/<fingerprint>.json   one record per unique point
 *
 * A record is { "cache_version", "fingerprint", "id", "stats" }; the
 * version and fingerprint are re-validated on read, so a record written
 * by an incompatible build (or a hash collision on a truncated name)
 * reads as a miss, never as stale data. Records are written to a
 * temporary file in the same directory and atomically renamed into
 * place, so a crashed or concurrent writer can never leave a torn
 * record; any unparsable record is treated as a miss and, in rw mode,
 * overwritten by the recomputed result.
 *
 * The sweep runner stores each point as soon as it finishes, so an
 * interrupted rw sweep is resumed by running it again: the finished
 * points come back as hits and only the rest simulate.
 */

namespace bowsim::harness {

/** --cache=off|ro|rw. */
enum class CacheMode {
    Off,        ///< never consult or write the cache
    ReadOnly,   ///< serve hits; never create or modify files
    ReadWrite,  ///< serve hits and store misses
};

const char *toString(CacheMode mode);

/** Parses "off" / "ro" / "rw"; false on anything else. */
bool parseCacheMode(const std::string &text, CacheMode *out);

/**
 * Point-disposition counters, exactly one increment per sweep point:
 * hits + misses + bypassed == points. Recorded in the sweep
 * JSON artifact's "cache" block and shown by the --progress heartbeat.
 */
struct CacheCounters {
    std::uint64_t hits = 0;      ///< served from the object store
    std::uint64_t misses = 0;    ///< fingerprinted, absent, simulated
    std::uint64_t stored = 0;    ///< records written (subset of misses)
    std::uint64_t bypassed = 0;  ///< not cacheable / side outputs
};

class ResultCache {
  public:
    /**
     * Opens (rw: creates) the cache at @p dir. Fatal when rw directories
     * cannot be created; a missing directory in ro mode simply misses.
     */
    ResultCache(std::string dir, CacheMode mode);

    CacheMode mode() const { return mode_; }

    /**
     * Looks @p fingerprint up in the object store. Returns true and
     * fills @p out on a valid hit; a missing, torn, version-skewed or
     * otherwise unparsable record is a miss. Thread-safe (reads only).
     */
    bool lookup(const std::string &fingerprint, KernelStats *out) const;

    /**
     * Stores @p stats under @p fingerprint (rw mode only; no-op in ro).
     * @p id is recorded for humans inspecting the cache. Temp-file +
     * atomic-rename, so concurrent writers of the same key are safe —
     * last rename wins with either writer's (bit-identical) content.
     */
    void store(const std::string &fingerprint, const std::string &id,
               const KernelStats &stats);

    /** Snapshot of the counters accumulated via the count*() calls. */
    CacheCounters counters() const;

    void countHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
    void countMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }
    void countStored() { stored_.fetch_add(1, std::memory_order_relaxed); }
    void countBypassed()
    {
        bypassed_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Path of the record for @p fingerprint (exists or not). */
    std::string recordPath(const std::string &fingerprint) const;

  private:
    std::string dir_;
    CacheMode mode_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stored_{0};
    std::atomic<std::uint64_t> bypassed_{0};
};

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_RESULT_CACHE_HPP
