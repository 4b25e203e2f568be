#include "src/trace/ring_recorder.hpp"

namespace bowsim::trace {

RingRecorder::RingRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    ring_.resize(capacity_);
}

void
RingRecorder::emit(const TraceEvent &ev)
{
    if (filter_ != 0 && (categoryOf(ev.kind) & filter_) == 0)
        return;
    ring_[next_] = ev;
    next_ = (next_ + 1) % capacity_;
    if (count_ < capacity_)
        ++count_;
    else
        ++dropped_;
}

std::vector<TraceEvent>
RingRecorder::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(count_);
    // Oldest event: next_ when the ring has wrapped, slot 0 otherwise.
    std::size_t start = count_ == capacity_ ? next_ : 0;
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

}  // namespace bowsim::trace
