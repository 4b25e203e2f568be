#include "src/mem/memory_space.hpp"

#include <algorithm>

#include "src/common/log.hpp"

namespace bowsim {

Addr
MemorySpace::allocate(std::uint64_t bytes)
{
    if (bytes == 0)
        bytes = 1;
    Addr base = next_;
    next_ += (bytes + 255) & ~std::uint64_t{255};
    return base;
}

const std::uint8_t *
MemorySpace::findSparse(Addr page) const
{
    auto it = sparse_.find(page);
    return it == sparse_.end() ? nullptr : it->second.data();
}

std::uint8_t *
MemorySpace::addPage(Addr page)
{
    if (page >= kDensePages)
        return sparse_.try_emplace(page).first->second.data();
    if (page >= dense_.size())
        dense_.resize(page + 1);
    dense_[page] = std::make_unique<Page>();
    return dense_[page]->data();
}

void
MemorySpace::badSize(const char *op, unsigned size)
{
    panic("MemorySpace::", op, ": bad size ", size);
}

void
MemorySpace::readBytes(Addr addr, void *out, std::uint64_t bytes) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    std::uint64_t done = 0;
    while (done < bytes) {
        Addr a = addr + done;
        Addr off = a % kPageBytes;
        std::uint64_t chunk = std::min(bytes - done, kPageBytes - off);
        if (const std::uint8_t *p = findPage(a / kPageBytes))
            std::memcpy(dst + done, p + off, chunk);
        else
            std::memset(dst + done, 0, chunk);
        done += chunk;
    }
}

void
MemorySpace::writeBytes(Addr addr, const void *in, std::uint64_t bytes)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    std::uint64_t done = 0;
    while (done < bytes) {
        Addr a = addr + done;
        Addr off = a % kPageBytes;
        std::uint64_t chunk = std::min(bytes - done, kPageBytes - off);
        std::memcpy(touchPage(a / kPageBytes) + off, src + done, chunk);
        done += chunk;
    }
}

std::uint64_t
MemorySpace::digest() const
{
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    auto mixPage = [&mix](Addr key, const Page &page) {
        // An all-zero page is indistinguishable from an untouched one,
        // so it must not perturb the digest.
        if (std::all_of(page.begin(), page.end(),
                        [](std::uint8_t b) { return b == 0; }))
            return;
        mix(&key, sizeof(key));
        mix(page.data(), page.size());
    };
    // Every sparse page number is at or above every table index, so
    // the table, then the map, is address order.
    for (Addr key = 0; key < dense_.size(); ++key) {
        if (dense_[key])
            mixPage(key, *dense_[key]);
    }
    for (const auto &[key, page] : sparse_)
        mixPage(key, page);
    return h;
}

}  // namespace bowsim
