#ifndef BOWSIM_SYNC_SYNC_KERNELS_HPP
#define BOWSIM_SYNC_SYNC_KERNELS_HPP

#include <memory>
#include <string>

#include "src/kernels/kernel_harness.hpp"
#include "src/sync/primitives.hpp"

/**
 * @file
 * KernelHarness wrappers for the src/sync primitive library: device
 * memory layout, launch geometry, and validation against the
 * src/cpuref references. makeSyncKernel() instantiates any primitive
 * at any geometry; tests and the litmus harness call it directly.
 */

namespace bowsim::sync {

/** Harness for @p p at @p g; name = syncBenchmarkName(p, g). */
std::unique_ptr<KernelHarness> makeSyncKernel(Primitive p,
                                              const SyncGeometry &g);

/** Harness name of one variant, e.g. "SYNC_tas_4x64". */
std::string syncBenchmarkName(Primitive p, const SyncGeometry &g);

}  // namespace bowsim::sync

#endif  // BOWSIM_SYNC_SYNC_KERNELS_HPP
