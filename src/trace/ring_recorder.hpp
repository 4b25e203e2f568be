#ifndef BOWSIM_TRACE_RING_RECORDER_HPP
#define BOWSIM_TRACE_RING_RECORDER_HPP

#include <cstddef>
#include <vector>

#include "src/trace/trace.hpp"

/**
 * @file
 * Bounded-memory trace recorder: a ring of fixed-size TraceEvent
 * records. When the ring fills, the oldest events are overwritten, so a
 * long run always retains the most recent window — the part that shows
 * why it ended the way it did. events() linearizes the ring back into
 * emission order.
 */

namespace bowsim::trace {

class RingRecorder : public TraceSink {
  public:
    /** Default capacity: 1M events (32 MiB), ample for scaled-down runs. */
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    explicit RingRecorder(std::size_t capacity = kDefaultCapacity);

    void emit(const TraceEvent &ev) override;

    /**
     * Category filter (--trace-filter): events whose categoryOf() bit
     * is not in @p mask are discarded before they reach the ring, so a
     * filtered recording of a long run retains a deeper window of the
     * categories that matter. 0 (the default) records everything.
     */
    void setFilter(std::uint32_t mask) { filter_ = mask; }

    /** Retained events in emission order (oldest first). */
    std::vector<TraceEvent> events() const;

    /** Events currently retained (at most the capacity). */
    std::size_t size() const { return count_; }
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }
    /** Total events ever emitted into this recorder. */
    std::uint64_t total() const { return dropped_ + count_; }

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t next_ = 0;   ///< slot the next event lands in
    std::size_t count_ = 0;  ///< valid slots
    std::uint64_t dropped_ = 0;
    std::uint32_t filter_ = 0;  ///< category mask; 0 = record all
};

}  // namespace bowsim::trace

#endif  // BOWSIM_TRACE_RING_RECORDER_HPP
