#ifndef BOWSIM_METRICS_METRICS_HPP
#define BOWSIM_METRICS_METRICS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/**
 * @file
 * Counter/gauge registry behind the sampled-metrics layer
 * (docs/METRICS.md). A MetricsRegistry holds an ordered column schema
 * plus the sampled rows.
 *
 * The registry does not aggregate by itself: values are *pulled* by the
 * MetricsSampler at the end of a Gpu::launch cycle, never pushed from
 * inside an SM's cycle (see docs/METRICS.md for the determinism
 * contract).
 */

namespace bowsim::metrics {

/** How a column's values behave over time (and how they are emitted). */
enum class Kind {
    /** Monotonically non-decreasing event count; emitted as an integer. */
    Counter,
    /** Instantaneous state sampled at the barrier; emitted as an integer. */
    Gauge,
    /** Derived ratio (e.g. IPC); emitted as a double. */
    Rate,
};

const char *toString(Kind kind);

/** One column of the sampled series. */
struct MetricColumn {
    std::string name;
    Kind kind = Kind::Counter;
};

/** Ordered column schema plus the sampled rows. */
class MetricsRegistry {
  public:
    /** Appends a column; returns its index. */
    std::size_t define(std::string name, Kind kind);

    std::size_t size() const { return columns_.size(); }
    const std::vector<MetricColumn> &columns() const { return columns_; }

    /** Appends one sample; @p row must have exactly size() entries. */
    void addRow(std::vector<double> row);

    const std::vector<std::vector<double>> &rows() const { return rows_; }

  private:
    std::vector<MetricColumn> columns_;
    std::vector<std::vector<double>> rows_;
};

}  // namespace bowsim::metrics

#endif  // BOWSIM_METRICS_METRICS_HPP
