#ifndef BOWSIM_MEM_MEMORY_SPACE_HPP
#define BOWSIM_MEM_MEMORY_SPACE_HPP

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/common/types.hpp"

/**
 * @file
 * Functional global memory: a sparse, paged, flat 64-bit byte-addressable
 * space with a bump allocator. Timing is modeled separately (the caches
 * and DRAM never hold data, only tags); all values live here.
 *
 * Pages below kDenseBytes — the null region and the heap, which is
 * bump-allocated upward from kHeapBase — sit in a table indexed by page
 * number, grown to the highest page written; pages above it, which only
 * a stray address reaches, go to a sparse map. An access that stays
 * inside one page is one table index and one fixed-size copy.
 */

namespace bowsim {

class MemorySpace {
  public:
    static constexpr Addr kPageBytes = 4096;
    /** Allocations start above the null page to catch null derefs. */
    static constexpr Addr kHeapBase = 0x10000;
    /** Addresses below this are paged by table index, the rest sparsely. */
    static constexpr Addr kDenseBytes = Addr{1} << 32;

    /** Allocates @p bytes, 256-byte aligned; returns the base address. */
    Addr allocate(std::uint64_t bytes);

    Word
    read(Addr addr, unsigned size) const
    {
        std::uint64_t raw = 0;
        switch (size) {
          case 2:
            copyOut<2>(addr, &raw);
            return static_cast<std::int16_t>(raw);
          case 4:
            copyOut<4>(addr, &raw);
            return static_cast<std::int32_t>(raw);
          case 8:
            copyOut<8>(addr, &raw);
            return static_cast<Word>(raw);
        }
        badSize("read", size);
    }

    void
    write(Addr addr, Word value, unsigned size)
    {
        const auto raw = static_cast<std::uint64_t>(value);
        switch (size) {
          case 2: return copyIn<2>(addr, &raw);
          case 4: return copyIn<4>(addr, &raw);
          case 8: return copyIn<8>(addr, &raw);
        }
        badSize("write", size);
    }

    /** Bulk host access, used by Gpu::memcpy. */
    void readBytes(Addr addr, void *out, std::uint64_t bytes) const;
    void writeBytes(Addr addr, const void *in, std::uint64_t bytes);

    /**
     * Content digest (FNV-1a over pages in address order). Two spaces
     * with the same digest hold the same bytes for all practical
     * purposes — the differential tests use this to compare final memory
     * states across schedulers and sinks.
     */
    std::uint64_t digest() const;

    /** Page-table slots: one past the highest table page written. */
    std::size_t tableSlots() const { return dense_.size(); }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;
    static constexpr Addr kDensePages = kDenseBytes / kPageBytes;

    /** Page number @p page's bytes, or null if it was never written. */
    const std::uint8_t *
    findPage(Addr page) const
    {
        if (page < dense_.size())
            return dense_[page] ? dense_[page]->data() : nullptr;
        return page < kDensePages ? nullptr : findSparse(page);
    }

    /** Copies @p N bytes at @p addr to @p out: one copy within a page. */
    template <unsigned N>
    void
    copyOut(Addr addr, void *out) const
    {
        const Addr off = addr % kPageBytes;
        if (off + N > kPageBytes)
            return readBytes(addr, out, N);
        if (const std::uint8_t *p = findPage(addr / kPageBytes))
            std::memcpy(out, p + off, N);
    }

    template <unsigned N>
    void
    copyIn(Addr addr, const void *in)
    {
        const Addr off = addr % kPageBytes;
        if (off + N > kPageBytes)
            return writeBytes(addr, in, N);
        std::memcpy(touchPage(addr / kPageBytes) + off, in, N);
    }

    /** Page number @p page's bytes, created zeroed if never written. */
    std::uint8_t *
    touchPage(Addr page)
    {
        if (page < dense_.size() && dense_[page])
            return dense_[page]->data();
        return addPage(page);
    }

    const std::uint8_t *findSparse(Addr page) const;
    std::uint8_t *addPage(Addr page);
    [[noreturn]] static void badSize(const char *op, unsigned size);

    /** Pages [0, dense_.size()) by page number; null = never written. */
    std::vector<std::unique_ptr<Page>> dense_;
    /** Written pages at or above kDensePages, in address order. */
    std::map<Addr, Page> sparse_;
    Addr next_ = kHeapBase;
};

}  // namespace bowsim

#endif  // BOWSIM_MEM_MEMORY_SPACE_HPP
