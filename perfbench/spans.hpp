#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/**
 * @file
 * In-memory host-time spans for the traced benchmark run. The benchmark
 * wraps each call it makes into the simulator's public API (kernel
 * factory, GpuSystem construction, setup, launch, validate, litmus
 * cell, serialization) in a Span. Spans carry a name, start and end, the
 * span that caused them and the sweep point they belong to; they stay in
 * memory until the run ends and are then written out in one piece.
 */

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One finished span. Times are nanoseconds since the log's epoch. */
struct SpanRecord {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t id = 0;
    /** Id of the causing span; -1 for a root. */
    std::int64_t parent = -1;
    /** Index of the sweep point the span belongs to; -1 for none. */
    std::int64_t point = -1;
    /** Worker slot that recorded the span (0 = the main thread). */
    unsigned thread = 0;
};

/** Thread-safe span sink. Points record a handful of spans each, so one
 *  mutex is never contended enough to show. */
class SpanLog {
  public:
    SpanLog() : epoch_(Clock::now()) {}

    std::int64_t nowNs() const;
    std::int64_t nextId();
    void record(SpanRecord r);

    /** Returns every span recorded since the last take() and forgets
     *  them. */
    std::vector<SpanRecord> take();

  private:
    Clock::time_point epoch_;
    std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::int64_t nextId_ = 0;
};

/**
 * Scoped span. It always times itself, so untraced runs get the same
 * durations (setup time, point latency) without a log; it records into
 * the log only when one is attached (null-handle idiom: the untraced
 * cost is two clock reads).
 */
class Span {
  public:
    Span(SpanLog *log, const char *name, std::int64_t parent = -1,
         std::int64_t point = -1, unsigned thread = 0);
    ~Span() { finish(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Ends the span on first call; returns its duration in seconds. */
    double finish();

    /** Id to pass as a child's parent (-1 when untraced). */
    std::int64_t id() const { return id_; }

  private:
    SpanLog *log_;
    const char *name_;
    std::int64_t parent_;
    std::int64_t point_;
    unsigned thread_;
    std::int64_t id_ = -1;
    Clock::time_point start_;
    std::int64_t startNs_ = 0;
    double seconds_ = 0.0;
    bool done_ = false;
};

/**
 * Self time of every span, in seconds, indexed like @p spans: its
 * duration minus the part of its interval that its child spans cover.
 * Children running concurrently on several workers count once (their
 * intervals are merged before subtracting).
 */
std::vector<double> selfSeconds(const std::vector<SpanRecord> &spans);

/** Sum of selfSeconds() per span name. */
std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans);

/** Writes @p spans as one JSON document; false when the file cannot be
 *  written. */
bool writeSpans(const std::string &path,
                const std::vector<SpanRecord> &spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
