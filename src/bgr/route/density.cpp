#include "bgr/route/density.hpp"

#include <algorithm>

namespace bgr {

DensityMap::DensityMap(std::int32_t channels, std::int32_t width)
    : width_(width), channel_count_(channels) {
  BGR_CHECK(channels >= 1 && width >= 1);
  const auto cells =
      static_cast<std::size_t>(channels) * static_cast<std::size_t>(width);
  total_.assign(cells, 0);
  bridge_.assign(cells, 0);
  // Every column starts at 0, which is therefore each chart's maximum.
  state_.resize(static_cast<std::size_t>(channels));
  for (ChannelState& s : state_) {
    s.params = ChannelDensityParams{0, width, 0, width};
    s.total_count.assign(1, width);
    s.bridge_count.assign(1, width);
  }
}

void DensityMap::apply(bool bridge, std::int32_t channel, IntInterval span,
                       std::int32_t delta) {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  BGR_CHECK(!span.empty());
  BGR_CHECK(span.lo >= 0 && span.hi < width_);
  ChannelState& state = state_[static_cast<std::size_t>(channel)];
  std::vector<std::int32_t>& count =
      bridge ? state.bridge_count : state.total_count;
  std::int32_t& max = bridge ? state.params.c_min : state.params.c_max;
  std::int32_t& at_max = bridge ? state.params.nc_min : state.params.nc_max;
  std::int32_t* row = (bridge ? bridge_ : total_).data() + flat(channel, 0);
  // Validate the whole span before mutating anything, so a rejected
  // update leaves the charts and histograms as they were.
  std::int32_t low = row[span.lo];
  std::int32_t high = row[span.lo];
  for (std::int32_t x = span.lo + 1; x <= span.hi; ++x) {
    low = std::min(low, row[x]);
    high = std::max(high, row[x]);
  }
  BGR_CHECK(low + delta >= 0);
  const std::int32_t top = high + delta;
  if (static_cast<std::size_t>(top) >= count.size()) {
    count.resize(static_cast<std::size_t>(top) + 1, 0);
  }
  for (std::int32_t x = span.lo; x <= span.hi; ++x) {
    --count[static_cast<std::size_t>(row[x])];
    row[x] += delta;
    ++count[static_cast<std::size_t>(row[x])];
  }
  // The counts sum to the width, so the walk down stops at an occupied
  // value, at the latest 0.
  max = std::max(max, top);
  while (count[static_cast<std::size_t>(max)] == 0) --max;
  at_max = count[static_cast<std::size_t>(max)];
}

void DensityMap::add_total(std::int32_t channel, IntInterval span,
                           std::int32_t w) {
  apply(/*bridge=*/false, channel, span, w);
}

void DensityMap::remove_total(std::int32_t channel, IntInterval span,
                              std::int32_t w) {
  apply(/*bridge=*/false, channel, span, -w);
}

void DensityMap::add_bridge(std::int32_t channel, IntInterval span,
                            std::int32_t w) {
  apply(/*bridge=*/true, channel, span, w);
}

void DensityMap::remove_bridge(std::int32_t channel, IntInterval span,
                               std::int32_t w) {
  apply(/*bridge=*/true, channel, span, -w);
}

ChartSpanParams DensityMap::span_params(const std::vector<std::int32_t>& chart,
                                        std::int32_t channel,
                                        IntInterval span) const {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  BGR_CHECK(!span.empty() && span.lo >= 0 && span.hi < width_);
  const std::int32_t* row = chart.data() + flat(channel, 0);
  // Two branch-free passes: the maximum, then the columns at it.
  ChartSpanParams p;
  for (std::int32_t x = span.lo; x <= span.hi; ++x) {
    p.max = std::max(p.max, row[x]);
  }
  for (std::int32_t x = span.lo; x <= span.hi; ++x) {
    p.at_max += row[x] == p.max ? 1 : 0;
  }
  return p;
}

EdgeDensityParams DensityMap::edge_params(std::int32_t channel,
                                          IntInterval span) const {
  const ChartSpanParams total = total_span_params(channel, span);
  const ChartSpanParams bridge = bridge_span_params(channel, span);
  return EdgeDensityParams{total.max, total.at_max, bridge.max,
                           bridge.at_max};
}

std::int64_t DensityMap::sum_max_density() const {
  std::int64_t sum = 0;
  for (std::int32_t c = 0; c < channel_count(); ++c) {
    sum += channel_params(c).c_max;
  }
  return sum;
}

}  // namespace bgr
