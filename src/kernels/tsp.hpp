#ifndef BOWSIM_KERNELS_TSP_HPP
#define BOWSIM_KERNELS_TSP_HPP

#include <memory>

#include "src/kernels/kernel_harness.hpp"

/**
 * @file
 * TSP: travelling-salesman hill climbers that update a global best
 * solution under a single global spin lock, serializing threads within a
 * warp over the critical section (Fig. 6b of the paper). Synchronization
 * is a tiny fraction of total instructions — tour-cost evaluation
 * dominates — which is why the paper sees little BOWS impact here.
 */

namespace bowsim {

struct TspParams {
    unsigned climbers = 3000;
    unsigned cities = 76;
    /** Cost-evaluation rounds per climber (scales useful work). */
    unsigned rounds = 8;
    unsigned threadsPerCta = 128;
    std::uint64_t seed = 4242;
};

std::unique_ptr<KernelHarness> makeTsp(const TspParams &p);

/** The host reference's best tour: its cost and the first climber that
 *  reaches it. */
struct TspBest {
    Word cost = 0;
    unsigned climber = 0;
};

/** Host replica of the kernel's tour cost for one climber. */
Word tspHostCost(const TspParams &p, unsigned climber);

/**
 * The best tour over all p.climbers climbers: the minimum of
 * tspHostCost and its first argmin, computed several climbers per pass.
 */
TspBest tspHostBest(const TspParams &p);

}  // namespace bowsim

#endif  // BOWSIM_KERNELS_TSP_HPP
