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
  params_.assign(static_cast<std::size_t>(channels), ChannelDensityParams{});
  dirty_.assign(static_cast<std::size_t>(channels), 1);
}

void DensityMap::apply(std::vector<std::int32_t>& chart, std::int32_t channel,
                       IntInterval span, std::int32_t delta) {
  BGR_CHECK(!span.empty());
  BGR_CHECK(span.lo >= 0 && span.hi < width_);
  std::int32_t* row = chart.data() + flat(channel, 0);
  for (std::int32_t x = span.lo; x <= span.hi; ++x) {
    row[x] += delta;
    BGR_CHECK(row[x] >= 0);
  }
  dirty_[static_cast<std::size_t>(channel)] = 1;
}

void DensityMap::add_total(std::int32_t channel, IntInterval span,
                           std::int32_t w) {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  apply(total_, channel, span, w);
}

void DensityMap::remove_total(std::int32_t channel, IntInterval span,
                              std::int32_t w) {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  apply(total_, channel, span, -w);
}

void DensityMap::add_bridge(std::int32_t channel, IntInterval span,
                            std::int32_t w) {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  apply(bridge_, channel, span, w);
}

void DensityMap::remove_bridge(std::int32_t channel, IntInterval span,
                               std::int32_t w) {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  apply(bridge_, channel, span, -w);
}

const ChannelDensityParams& DensityMap::channel_params(
    std::int32_t channel) const {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  if (dirty_[static_cast<std::size_t>(channel)] != 0) {
    ChannelDensityParams p;
    const std::int32_t* total = total_.data() + flat(channel, 0);
    const std::int32_t* bridge = bridge_.data() + flat(channel, 0);
    for (std::int32_t x = 0; x < width_; ++x) {
      const auto v = total[x];
      if (v > p.c_max) {
        p.c_max = v;
        p.nc_max = 1;
      } else if (v == p.c_max) {
        ++p.nc_max;
      }
    }
    for (std::int32_t x = 0; x < width_; ++x) {
      const auto v = bridge[x];
      if (v > p.c_min) {
        p.c_min = v;
        p.nc_min = 1;
      } else if (v == p.c_min) {
        ++p.nc_min;
      }
    }
    params_[static_cast<std::size_t>(channel)] = p;
    dirty_[static_cast<std::size_t>(channel)] = 0;
  }
  return params_[static_cast<std::size_t>(channel)];
}

EdgeDensityParams DensityMap::edge_params(std::int32_t channel,
                                          IntInterval span) const {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  EdgeDensityParams p;
  BGR_CHECK(!span.empty() && span.lo >= 0 && span.hi < width_);
  const std::int32_t* total = total_.data() + flat(channel, 0);
  const std::int32_t* bridge = bridge_.data() + flat(channel, 0);
  for (std::int32_t x = span.lo; x <= span.hi; ++x) {
    const auto t = total[x];
    if (t > p.d_max) {
      p.d_max = t;
      p.nd_max = 1;
    } else if (t == p.d_max) {
      ++p.nd_max;
    }
    const auto b = bridge[x];
    if (b > p.d_min) {
      p.d_min = b;
      p.nd_min = 1;
    } else if (b == p.d_min) {
      ++p.nd_min;
    }
  }
  return p;
}

std::int64_t DensityMap::sum_max_density() const {
  std::int64_t sum = 0;
  for (std::int32_t c = 0; c < channel_count(); ++c) {
    sum += channel_params(c).c_max;
  }
  return sum;
}

}  // namespace bgr
