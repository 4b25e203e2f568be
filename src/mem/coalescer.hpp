#ifndef BOWSIM_MEM_COALESCER_HPP
#define BOWSIM_MEM_COALESCER_HPP

#include <array>
#include <cstddef>
#include <cstdint>

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
 * allocates, and nothing is zeroed up front.
 */
class Targets {
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Addr operator[](std::size_t i) const { return addrs_[i]; }
    const Addr *begin() const { return addrs_.data(); }
    const Addr *end() const { return addrs_.data() + size_; }

    /**
     * Appends @p a unless it is already a target. A repeat of the last
     * target (the lanes of a unit-stride access) costs one compare;
     * anything else probes an open-addressed index of 2 * kWarpSize
     * slots, so 32 distinct atomic addresses cost about 32 probes
     * instead of the 496 compares of a linear scan.
     */
    void
    insert(Addr a)
    {
        if (size_ != 0 && addrs_[size_ - 1] == a)
            return;
        unsigned h = static_cast<unsigned>(
            (a * 0x9E3779B97F4A7C15ull) >> (64 - kIndexBits));
        for (; ((used_ >> h) & 1) != 0; h = (h + 1) % kIndexSlots) {
            if (addrs_[index_[h]] == a)
                return;
        }
        used_ |= std::uint64_t{1} << h;
        index_[h] = static_cast<std::uint8_t>(size_);
        addrs_[size_++] = a;
    }

  private:
    static constexpr unsigned kIndexBits = 6;
    static constexpr unsigned kIndexSlots = 1u << kIndexBits;
    static_assert(kIndexSlots >= 2 * kWarpSize && kIndexSlots <= 64,
                  "a half-full index that one word's bits cover");

    std::array<Addr, kWarpSize> addrs_;
    unsigned size_ = 0;
    /** Hash slot -> position in addrs_; valid where used_ has a bit. */
    std::array<std::uint8_t, kIndexSlots> index_;
    std::uint64_t used_ = 0;
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
