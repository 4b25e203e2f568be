#ifndef BOWSIM_KERNELS_HASHTABLE_HPP
#define BOWSIM_KERNELS_HASHTABLE_HPP

#include <memory>

#include "src/kernels/kernel_harness.hpp"

/**
 * @file
 * HT: chained hashtable insertion with one spin lock per bucket — the
 * critical section of Fig. 1a. Each thread inserts keys (grid-stride) by
 * CAS-acquiring the bucket mutex, linking its node at the head of the
 * chain and releasing. Fewer buckets = more contention.
 */

namespace bowsim {

struct HashtableParams {
    unsigned insertions = 16384;
    unsigned buckets = 1024;
    unsigned ctas = 30;
    unsigned threadsPerCta = 256;
    /**
     * Software back-off delay factor (Fig. 3): threads that fail an
     * acquire busy-wait for delayFactor * ctaid cycles before retrying.
     * 0 disables the delay code entirely (the Fig. 1a kernel).
     */
    unsigned delayFactor = 0;
    std::uint64_t seed = 12345;
};

std::unique_ptr<KernelHarness> makeHashtable(const HashtableParams &p);

/**
 * The @p count keys HT inserts for @p seed (31-bit xorshift64* draws),
 * so a host reference can time the same keys.
 */
std::vector<Word> hashtableKeys(unsigned count, std::uint64_t seed);

}  // namespace bowsim

#endif  // BOWSIM_KERNELS_HASHTABLE_HPP
