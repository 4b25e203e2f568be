#ifndef BOWSIM_HARNESS_FINGERPRINT_HPP
#define BOWSIM_HARNESS_FINGERPRINT_HPP

#include <cstdint>
#include <string>

/**
 * @file
 * The SHA-256 digest that pins whole runs: the golden-digest tests
 * (tests/test_golden_stats.cpp) hash each run's statsToJson dump and
 * final memory image through it, and perfbench's result_sha256 hashes
 * each point's outcome, memory digest and statistics with it. Any drift
 * in a pinned digest is a real behavior change, so the encoding must
 * never be ambiguous.
 */

namespace bowsim::harness {

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

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_FINGERPRINT_HPP
