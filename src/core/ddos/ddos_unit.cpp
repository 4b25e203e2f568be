#include "src/core/ddos/ddos_unit.hpp"

namespace bowsim {

DdosUnit::DdosUnit(const DdosConfig &cfg, unsigned max_warps)
    : cfg_(cfg), table_(cfg), maxWarps_(max_warps)
{
    unsigned sets = cfg.timeShare ? 1 : max_warps;
    histories_.reserve(sets);
    for (unsigned i = 0; i < sets; ++i)
        histories_.emplace_back(cfg);
}

void
DdosUnit::rotateTimeShare(Cycle now)
{
    if (!cfg_.timeShare)
        return;
    if (!timeShareStarted_) {
        // First use: warp 0 owns the registers for a full epoch.
        timeShareStarted_ = true;
        nextRotate_ = now + kTimeShareEpoch;
        return;
    }
    if (now < nextRotate_)
        return;
    sharedOwner_ = (sharedOwner_ + 1) % maxWarps_;
    histories_[0].reset();
    nextRotate_ = now + kTimeShareEpoch;
}

HistoryRegisters *
DdosUnit::historyFor(unsigned warp, Cycle now)
{
    if (!cfg_.timeShare)
        return &histories_[warp];
    rotateTimeShare(now);
    return warp == sharedOwner_ ? &histories_[0] : nullptr;
}

const HistoryRegisters *
DdosUnit::historyFor(unsigned warp) const
{
    if (!cfg_.timeShare)
        return &histories_[warp];
    return warp == sharedOwner_ ? &histories_[0] : nullptr;
}

void
DdosUnit::onSetp(unsigned warp, Pc pc, Word src0, Word src1, Cycle now)
{
    HistoryRegisters *hist = historyFor(warp, now);
    if (!hist)
        return;
    std::uint32_t path = hashHistory(cfg_.hash, cfg_.hashBits,
                                     static_cast<std::uint64_t>(pc));
    std::uint32_t v0 = hashHistory(cfg_.hash, cfg_.hashBits,
                                   static_cast<std::uint64_t>(src0));
    std::uint32_t v1 = hashHistory(cfg_.hash, cfg_.hashBits,
                                   static_cast<std::uint64_t>(src1));
    hist->insert(path, v0, v1);
}

bool
DdosUnit::onBackwardBranch(unsigned warp, Pc pc, Cycle now)
{
    accuracy_.onBackwardBranch(pc, now);
    bool was_confirmed = table_.isConfirmed(pc);
    const HistoryRegisters *hist = historyFor(warp);
    if (hist && hist->spinning()) {
        if (const std::optional<Pc> evicted = table_.onSpinningBranch(pc)) {
            tracer_.emit(now, sm_, static_cast<std::int32_t>(warp),
                         trace::EventKind::SibEvict, *evicted);
        }
    } else if (hist) {
        table_.onNonSpinningBranch(pc);
    }
    if (was_confirmed || !table_.isConfirmed(pc))
        return false;
    accuracy_.onConfirmed(pc, now);
    tracer_.emit(now, sm_, static_cast<std::int32_t>(warp),
                 trace::EventKind::SibConfirm, pc);
    return true;
}

bool
DdosUnit::isSpinning(unsigned warp) const
{
    const HistoryRegisters *hist = historyFor(warp);
    return hist && hist->spinning();
}

void
DdosUnit::resetWarp(unsigned warp)
{
    if (!cfg_.timeShare) {
        histories_[warp].reset();
    } else if (warp == sharedOwner_) {
        histories_[0].reset();
    }
}

}  // namespace bowsim
