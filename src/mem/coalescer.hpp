#ifndef BOWSIM_MEM_COALESCER_HPP
#define BOWSIM_MEM_COALESCER_HPP

#include <array>
#include <cstddef>

#include "src/common/types.hpp"

/**
 * @file
 * Memory-access coalescing: the per-lane byte addresses of one warp
 * memory instruction collapse into one transaction per distinct 128-byte
 * line, exactly as on Fermi-class hardware. Atomics serialize per
 * distinct address at the L2 banks instead, so they collapse per
 * address.
 */

namespace bowsim {

/**
 * The distinct transaction targets of one warp memory instruction, in
 * first-touch order (lane 0 upward), which keeps the timing model
 * deterministic. At most one per lane, held inline: building one never
 * allocates.
 */
class Targets {
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Addr operator[](std::size_t i) const { return addrs_[i]; }
    const Addr *begin() const { return addrs_.data(); }
    const Addr *end() const { return addrs_.data() + size_; }

    /** Appends @p a unless it is already a target. */
    void
    insert(Addr a)
    {
        for (unsigned i = 0; i < size_; ++i) {
            if (addrs_[i] == a)
                return;
        }
        addrs_[size_++] = a;
    }

  private:
    std::array<Addr, kWarpSize> addrs_{};
    unsigned size_ = 0;
};

/** Transaction granularity of a warp memory instruction. */
enum class Granularity {
    /** One transaction per 128-byte line (loads and stores). */
    Line,
    /** One transaction per distinct address (atomics). */
    Address,
};

/** The distinct targets touched by @p mask lanes at @p g granularity. */
Targets coalesce(const std::array<Addr, kWarpSize> &lane_addrs,
                 LaneMask mask, Granularity g = Granularity::Line);

}  // namespace bowsim

#endif  // BOWSIM_MEM_COALESCER_HPP
