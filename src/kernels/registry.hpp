#ifndef BOWSIM_KERNELS_REGISTRY_HPP
#define BOWSIM_KERNELS_REGISTRY_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernels/kernel_harness.hpp"

/**
 * @file
 * Benchmark registry: the paper's kernel suite by name, with inputs
 * scaled to run in seconds on a laptop (EXPERIMENTS.md records the
 * scaling). Section V of the paper:
 *
 *   sync kernels: TB, ST, DS, ATM, HT, TSP, NW1, NW2
 *   sync-free:    VEC, KM, MS, HL, RED, STEN
 *
 * A caller that needs a shape the scaled defaults do not give (fig01's
 * bucket sweep, fig03's back-off factor) passes validated overrides
 * instead of building the kernel itself, so the point stays a registry
 * point that its artifact records by kernel name, scale and overrides.
 */

namespace bowsim {

/** The eight busy-wait synchronization kernels, in the paper's order. */
const std::vector<std::string> &syncKernelNames();

/** The synchronization-free control kernels. */
const std::vector<std::string> &syncFreeKernelNames();

/**
 * Per-kernel parameter overrides, keyed by the kernel's parameter-struct
 * field name. Each value is absolute: it replaces what the scaled
 * defaults would give. Only HT accepts overrides so far, with the
 * HashtableParams keys insertions, buckets, ctas, threadsPerCta and
 * delayFactor.
 */
using KernelParams = std::map<std::string, std::int64_t>;

/**
 * Creates the named benchmark with its default (scaled) inputs, then
 * applies @p params.
 * @param scale multiplies the default problem size (1.0 = default).
 * Fatal on an unknown name, an override key the kernel does not accept
 * (any key on a kernel without overrides) or a value that does not fit
 * its field; the override errors name the accepted keys.
 */
std::unique_ptr<KernelHarness> makeBenchmark(const std::string &name,
                                             double scale = 1.0,
                                             const KernelParams &params = {});

}  // namespace bowsim

#endif  // BOWSIM_KERNELS_REGISTRY_HPP
