#include "src/core/ddos/sib_table.hpp"

#include <algorithm>

namespace bowsim {

std::optional<Pc>
SibTable::onSpinningBranch(Pc pc)
{
    std::optional<Pc> evicted;
    auto it = table_.find(pc);
    if (it == table_.end()) {
        if (table_.size() >= kSibTableEntries) {
            // Evict the lowest-confidence unconfirmed entry; if every
            // entry is confirmed the new branch cannot be tracked.
            auto victim = table_.end();
            for (auto jt = table_.begin(); jt != table_.end(); ++jt) {
                if (jt->second.confirmed)
                    continue;
                if (victim == table_.end() ||
                    jt->second.confidence < victim->second.confidence) {
                    victim = jt;
                }
            }
            if (victim == table_.end())
                return std::nullopt;
            evicted = victim->first;
            ++evicts_;
            table_.erase(victim);
        }
        it = table_.emplace(pc, Entry{}).first;
    }
    Entry &e = it->second;
    if (e.confidence < threshold_)
        ++e.confidence;
    if (e.confidence >= threshold_ && !e.confirmed) {
        e.confirmed = true;
        ++confirms_;
    }
    peak_ = std::max(peak_, table_.size());
    return evicted;
}

void
SibTable::onNonSpinningBranch(Pc pc)
{
    auto it = table_.find(pc);
    if (it == table_.end())
        return;
    Entry &e = it->second;
    if (e.confidence > 0)
        --e.confidence;
    if (e.confidence == 0 && !e.confirmed) {
        ++evicts_;
        table_.erase(it);
    }
}

bool
SibTable::isConfirmed(Pc pc) const
{
    auto it = table_.find(pc);
    return it != table_.end() && it->second.confirmed;
}

}  // namespace bowsim
