#include "src/mem/cache.hpp"

#include "src/common/log.hpp"

namespace bowsim {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg), numSets_(cfg.numSets())
{
    if (numSets_ == 0)
        fatal("cache: size ", cfg.sizeBytes, " too small for ", cfg.ways,
              " ways of ", kLineBytes, "B lines");
    lines_.resize(static_cast<size_t>(numSets_) * cfg_.ways);
}

unsigned
Cache::setOf(Addr line) const
{
    return static_cast<unsigned>((line / kLineBytes) % numSets_);
}

bool
Cache::probe(Addr line) const
{
    unsigned set = setOf(line);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        const Line &l = lines_[set * cfg_.ways + w];
        if (l.valid && l.tag == line)
            return true;
    }
    return false;
}

bool
Cache::access(Addr line, bool write)
{
    unsigned set = setOf(line);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Line &l = lines_[set * cfg_.ways + w];
        if (l.valid && l.tag == line) {
            l.lru = ++tick_;
            l.dirty = l.dirty || write;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

bool
Cache::fill(Addr line, bool write, bool *evicted_dirty)
{
    if (evicted_dirty)
        *evicted_dirty = false;
    unsigned set = setOf(line);
    Line *victim = nullptr;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Line &l = lines_[set * cfg_.ways + w];
        if (l.valid && l.tag == line) {
            // Already present (e.g., filled by a merged miss).
            l.lru = ++tick_;
            l.dirty = l.dirty || write;
            return false;
        }
        if (!victim) {
            victim = &l;
        } else if (victim->valid && (!l.valid || l.lru < victim->lru)) {
            victim = &l;
        }
    }
    if (!victim)
        panic("cache fill found no victim");
    bool evicted = victim->valid;
    if (evicted && evicted_dirty)
        *evicted_dirty = victim->dirty;
    victim->tag = line;
    victim->valid = true;
    victim->dirty = write;
    victim->lru = ++tick_;
    return evicted;
}

void
Cache::invalidateAll()
{
    for (Line &l : lines_)
        l.valid = false;
}

}  // namespace bowsim
