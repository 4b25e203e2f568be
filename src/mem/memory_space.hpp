#ifndef BOWSIM_MEM_MEMORY_SPACE_HPP
#define BOWSIM_MEM_MEMORY_SPACE_HPP

#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/common/types.hpp"

/**
 * @file
 * Functional global memory: a sparse, paged, flat 64-bit byte-addressable
 * space with a bump allocator. Timing is modeled separately (the caches
 * and DRAM never hold data, only tags); all values live here.
 */

namespace bowsim {

class MemorySpace {
  public:
    static constexpr Addr kPageBytes = 4096;
    /** Allocations start above the null page to catch null derefs. */
    static constexpr Addr kHeapBase = 0x10000;

    /** Allocates @p bytes, 256-byte aligned; returns the base address. */
    Addr allocate(std::uint64_t bytes);

    /** Releases all allocations and contents. */
    void clear();

    Word read(Addr addr, unsigned size) const;
    void write(Addr addr, Word value, unsigned size);

    /** Bulk host access, used by Gpu::memcpy. */
    void readBytes(Addr addr, void *out, std::uint64_t bytes) const;
    void writeBytes(Addr addr, const void *in, std::uint64_t bytes);

    /**
     * Content digest (FNV-1a over pages in address order), independent of
     * page-map iteration order. Two spaces with the same digest hold the
     * same bytes for all practical purposes — the differential tests use
     * this to compare final memory states across schedulers and sinks.
     */
    std::uint64_t digest() const;

  private:
    const std::vector<std::uint8_t> *findPage(Addr page) const;
    std::vector<std::uint8_t> &touchPage(Addr page);

    std::unordered_map<Addr, std::vector<std::uint8_t>> pages_;
    Addr next_ = kHeapBase;
};

}  // namespace bowsim

#endif  // BOWSIM_MEM_MEMORY_SPACE_HPP
