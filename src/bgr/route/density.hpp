#pragma once

#include <cstdint>
#include <vector>

#include "bgr/common/check.hpp"
#include "bgr/common/interval.hpp"

namespace bgr {

/// Channel aggregates of §3.3: C_M / C_m are the maxima of the total and
/// bridge-edge density charts, NC_M / NC_m the number of grid columns at
/// those maxima. Compared whole by the selection loop: a chart change that
/// leaves them equal re-keys only the candidates whose span overlaps it.
struct ChannelDensityParams {
  std::int32_t c_max = 0;    // C_M(c)
  std::int32_t nc_max = 0;   // NC_M(c)
  std::int32_t c_min = 0;    // C_m(c)
  std::int32_t nc_min = 0;   // NC_m(c)

  friend bool operator==(const ChannelDensityParams&,
                         const ChannelDensityParams&) = default;
};

/// Per-edge aggregates over the edge's interval (Fig. 4): D_M / D_m are the
/// chart maxima within the interval, ND_M / ND_m the number of interval
/// columns attaining them.
struct EdgeDensityParams {
  std::int32_t d_max = 0;    // D_M(e)
  std::int32_t nd_max = 0;   // ND_M(e)
  std::int32_t d_min = 0;    // D_m(e)
  std::int32_t nd_min = 0;   // ND_m(e)
};

/// One chart's half of EdgeDensityParams: the chart maximum within an
/// edge's interval and the number of interval columns attaining it —
/// (D_M, ND_M) read from d_M, (D_m, ND_m) from d_m.
struct ChartSpanParams {
  std::int32_t max = 0;
  std::int32_t at_max = 0;
};

/// Density charts d_M(c, x) (all trunk edges) and d_m(c, x) (bridge trunk
/// edges — the unrecoverable lower bound) for every channel, plus the
/// channel aggregates, maintained on every update: each channel keeps a
/// per-chart histogram (count[v] = columns at value v) and its maximum, so
/// an update costs O(span) and channel_params is a plain read. There is no
/// lazy state.
///
/// The charts are two flat channels×width arenas (SoA): they are the
/// hottest arrays in the deletion loop, and one contiguous block keeps the
/// span scans prefetch-friendly at the 100k/1M-cell presets. All
/// per-channel state (chart rows, histograms, aggregates) occupies disjoint
/// memory per channel, so callers touching disjoint channel sets may
/// mutate and read concurrently — the contract the sharded deletion loop
/// relies on. Each channel's histograms and aggregates share one
/// cache-line-aligned block, so concurrent workers do not false-share.
class DensityMap {
 public:
  DensityMap(std::int32_t channels, std::int32_t width);

  [[nodiscard]] std::int32_t channel_count() const { return channel_count_; }
  [[nodiscard]] std::int32_t width() const { return width_; }

  /// Adds/removes a w-pitch trunk edge's contribution to d_M. An update
  /// that would drive a column negative throws before changing anything.
  void add_total(std::int32_t channel, IntInterval span, std::int32_t w);
  void remove_total(std::int32_t channel, IntInterval span, std::int32_t w);
  /// Adds/removes a w-pitch bridge trunk edge's contribution to d_m.
  void add_bridge(std::int32_t channel, IntInterval span, std::int32_t w);
  void remove_bridge(std::int32_t channel, IntInterval span, std::int32_t w);

  [[nodiscard]] const ChannelDensityParams& channel_params(
      std::int32_t channel) const {
    BGR_CHECK(channel >= 0 && channel < channel_count_);
    return state_[static_cast<std::size_t>(channel)].params;
  }
  [[nodiscard]] EdgeDensityParams edge_params(std::int32_t channel,
                                              IntInterval span) const;
  /// Per-chart reads: edge_params' total-chart (D_M, ND_M) and
  /// bridge-chart (D_m, ND_m) fields alone, for a caller that knows only
  /// one chart moved over the span.
  [[nodiscard]] ChartSpanParams total_span_params(std::int32_t channel,
                                                  IntInterval span) const {
    return span_params(total_, channel, span);
  }
  [[nodiscard]] ChartSpanParams bridge_span_params(std::int32_t channel,
                                                   IntInterval span) const {
    return span_params(bridge_, channel, span);
  }

  [[nodiscard]] std::int32_t total_at(std::int32_t channel, std::int32_t x) const {
    return total_[flat(channel, x)];
  }
  [[nodiscard]] std::int32_t bridge_at(std::int32_t channel, std::int32_t x) const {
    return bridge_[flat(channel, x)];
  }

  /// Σ_c C_M(c): the track-count proxy minimized by the area phase.
  [[nodiscard]] std::int64_t sum_max_density() const;

 private:
  [[nodiscard]] std::size_t flat(std::int32_t channel, std::int32_t x) const {
    return static_cast<std::size_t>(channel) *
               static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  /// Per-channel aggregates: params (C_M, NC_M, C_m, NC_m) and the column
  /// histograms of the two charts they are read from.
  struct alignas(64) ChannelState {
    ChannelDensityParams params;
    std::vector<std::int32_t> total_count;   // total_count[v]: columns at v
    std::vector<std::int32_t> bridge_count;  // bridge_count[v]: columns at v
  };

  /// The maximum of one chart's row over `span` (from 0, like the channel
  /// aggregates) and the number of span columns at it.
  [[nodiscard]] ChartSpanParams span_params(
      const std::vector<std::int32_t>& chart, std::int32_t channel,
      IntInterval span) const;

  /// Adds `delta` to the columns in `span` of the channel's total chart
  /// (or bridge chart) and moves that chart's histogram and (max,
  /// count-at-max) pair with them.
  void apply(bool bridge, std::int32_t channel, IntInterval span,
             std::int32_t delta);

  std::int32_t width_;
  std::int32_t channel_count_;
  std::vector<std::int32_t> total_;   // channels × width arena
  std::vector<std::int32_t> bridge_;  // channels × width arena
  std::vector<ChannelState> state_;   // per channel
};

}  // namespace bgr
