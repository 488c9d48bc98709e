#include "bgr/route/density.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bgr/common/rng.hpp"

namespace bgr {
namespace {

TEST(Density, EmptyChannelParams) {
  DensityMap map(2, 10);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 0);
  EXPECT_EQ(p.nc_max, 10);  // every column attains the zero maximum
  EXPECT_EQ(p.c_min, 0);
  EXPECT_EQ(p.nc_min, 10);
}

TEST(Density, AddAndRemoveTotal) {
  DensityMap map(1, 10);
  map.add_total(0, {2, 6}, 1);
  map.add_total(0, {4, 8}, 1);
  EXPECT_EQ(map.total_at(0, 3), 1);
  EXPECT_EQ(map.total_at(0, 5), 2);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 2);
  EXPECT_EQ(p.nc_max, 3);  // columns 4,5,6
  map.remove_total(0, {2, 6}, 1);
  EXPECT_EQ(map.channel_params(0).c_max, 1);
}

TEST(Density, MultiPitchContributesWidth) {
  DensityMap map(1, 10);
  map.add_total(0, {0, 4}, 3);
  EXPECT_EQ(map.total_at(0, 2), 3);
  EXPECT_EQ(map.channel_params(0).c_max, 3);
}

TEST(Density, BridgeChartIsSeparate) {
  DensityMap map(1, 10);
  map.add_total(0, {0, 9}, 1);
  map.add_bridge(0, {3, 5}, 1);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 1);
  EXPECT_EQ(p.c_min, 1);
  EXPECT_EQ(p.nc_min, 3);
  EXPECT_EQ(map.bridge_at(0, 4), 1);
  EXPECT_EQ(map.bridge_at(0, 6), 0);
}

TEST(Density, NegativeChartRejected) {
  DensityMap map(1, 10);
  EXPECT_THROW(map.remove_total(0, {0, 0}, 1), CheckError);
}

TEST(Density, RejectedUpdateLeavesMapUnchanged) {
  // The remove covers columns 2..7 but only 2..4 hold a unit; it must
  // throw before touching any column, chart or aggregate.
  DensityMap map(1, 10);
  map.add_total(0, {0, 4}, 1);
  map.add_bridge(0, {1, 2}, 1);
  const ChannelDensityParams before = map.channel_params(0);
  EXPECT_THROW(map.remove_total(0, {2, 7}, 1), CheckError);
  EXPECT_THROW(map.remove_bridge(0, {2, 3}, 1), CheckError);
  for (std::int32_t x = 0; x < 10; ++x) {
    EXPECT_EQ(map.total_at(0, x), x <= 4 ? 1 : 0) << x;
    EXPECT_EQ(map.bridge_at(0, x), x >= 1 && x <= 2 ? 1 : 0) << x;
  }
  EXPECT_EQ(map.channel_params(0), before);
  // The map stays usable: the valid remove still brings the peak down.
  map.remove_total(0, {0, 4}, 1);
  EXPECT_EQ(map.channel_params(0).c_max, 0);
  EXPECT_EQ(map.channel_params(0).nc_max, 10);
}

TEST(Density, OutOfRangeRejected) {
  DensityMap map(1, 10);
  EXPECT_THROW(map.add_total(0, {8, 12}, 1), CheckError);
  EXPECT_THROW(map.add_total(0, IntInterval{}, 1), CheckError);
}

TEST(Density, EdgeParamsFigure4Semantics) {
  // Reconstruct the Fig. 4 situation: an edge interval that covers part of
  // the channel; D_M / ND_M are the chart maxima *within the interval*.
  DensityMap map(1, 12);
  map.add_total(0, {0, 3}, 1);
  map.add_total(0, {2, 9}, 1);
  map.add_total(0, {2, 5}, 1);  // peak 3 on columns 2..3
  const auto& cp = map.channel_params(0);
  EXPECT_EQ(cp.c_max, 3);
  EXPECT_EQ(cp.nc_max, 2);
  // Edge covering columns 4..9 sees maximum 2 (columns 4,5) → ND_M = 2.
  const auto ep = map.edge_params(0, {4, 9});
  EXPECT_EQ(ep.d_max, 2);
  EXPECT_EQ(ep.nd_max, 2);
  // Edge covering the peak directly.
  const auto ep2 = map.edge_params(0, {2, 3});
  EXPECT_EQ(ep2.d_max, 3);
  EXPECT_EQ(ep2.nd_max, 2);
}

TEST(Density, ChannelParamsCompareWhole) {
  // The selection loop re-keys a whole channel only when its aggregates
  // moved; a chart change below the peak must leave them equal.
  DensityMap map(1, 10);
  map.add_total(0, {0, 5}, 2);
  const ChannelDensityParams before = map.channel_params(0);
  map.add_total(0, {7, 8}, 1);
  EXPECT_EQ(map.channel_params(0), before);
  map.add_total(0, {8, 8}, 1);
  EXPECT_NE(map.channel_params(0), before);  // ties the peak: nc_max moves
}

TEST(Density, SumMaxDensity) {
  DensityMap map(3, 10);
  map.add_total(0, {0, 5}, 2);
  map.add_total(2, {0, 5}, 1);
  EXPECT_EQ(map.sum_max_density(), 3);
}

/// Brute-force (maximum, columns at the maximum) of one chart over [lo, hi],
/// the maximum starting at 0 like the aggregates it checks.
std::pair<std::int32_t, std::int32_t> brute_peak(
    const std::vector<std::int32_t>& row, std::int32_t lo, std::int32_t hi) {
  std::int32_t peak = 0;
  for (std::int32_t x = lo; x <= hi; ++x) {
    peak = std::max(peak, row[static_cast<std::size_t>(x)]);
  }
  std::int32_t at = 0;
  for (std::int32_t x = lo; x <= hi; ++x) {
    at += row[static_cast<std::size_t>(x)] == peak ? 1 : 0;
  }
  return {peak, at};
}

/// Property sweep: the maintained channel aggregates and the span queries
/// (edge_params and the per-chart reads) equal a brute-force scan of the
/// charts after every update, over several channels and widths up to 300.
class DensityRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DensityRandom, ParamsMatchBruteForce) {
  Rng rng(GetParam());
  constexpr std::int32_t kChannels = 4;
  const std::int32_t width = rng.uniform_i32(1, 300);
  DensityMap map(kChannels, width);
  using Row = std::vector<std::int32_t>;
  std::vector<Row> total(kChannels, Row(static_cast<std::size_t>(width), 0));
  std::vector<Row> bridge(kChannels, Row(static_cast<std::size_t>(width), 0));
  struct Op {
    std::int32_t channel;
    IntInterval span;
    std::int32_t w;
    bool is_bridge;
  };
  std::vector<Op> live;
  auto apply = [&](const Op& op, std::int32_t sign) {
    Row& row =
        (op.is_bridge ? bridge : total)[static_cast<std::size_t>(op.channel)];
    for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x) {
      row[static_cast<std::size_t>(x)] += sign * op.w;
    }
    if (op.is_bridge && sign > 0) map.add_bridge(op.channel, op.span, op.w);
    if (op.is_bridge && sign < 0) map.remove_bridge(op.channel, op.span, op.w);
    if (!op.is_bridge && sign > 0) map.add_total(op.channel, op.span, op.w);
    if (!op.is_bridge && sign < 0) map.remove_total(op.channel, op.span, op.w);
  };
  auto check = [&](int step) {
    for (std::int32_t c = 0; c < kChannels; ++c) {
      const Row& t = total[static_cast<std::size_t>(c)];
      const Row& b = bridge[static_cast<std::size_t>(c)];
      for (std::int32_t x = 0; x < width; ++x) {
        ASSERT_EQ(map.total_at(c, x), t[static_cast<std::size_t>(x)]);
        ASSERT_EQ(map.bridge_at(c, x), b[static_cast<std::size_t>(x)]);
      }
      const auto [c_max, nc_max] = brute_peak(t, 0, width - 1);
      const auto [c_min, nc_min] = brute_peak(b, 0, width - 1);
      ASSERT_EQ(map.channel_params(c),
                (ChannelDensityParams{c_max, nc_max, c_min, nc_min}))
          << "channel " << c << " step " << step;
      // Random spans, a 1-column span and the full width.
      const std::int32_t x = rng.uniform_i32(0, width - 1);
      const IntInterval spans[] = {
          IntInterval::spanning(rng.uniform_i32(0, width - 1),
                                rng.uniform_i32(0, width - 1)),
          IntInterval::spanning(rng.uniform_i32(0, width - 1),
                                rng.uniform_i32(0, width - 1)),
          IntInterval{x, x}, IntInterval{0, width - 1}};
      for (const IntInterval span : spans) {
        const auto [d_max, nd_max] = brute_peak(t, span.lo, span.hi);
        const auto [d_min, nd_min] = brute_peak(b, span.lo, span.hi);
        const EdgeDensityParams ep = map.edge_params(c, span);
        ASSERT_EQ(ep.d_max, d_max);
        ASSERT_EQ(ep.nd_max, nd_max);
        ASSERT_EQ(ep.d_min, d_min);
        ASSERT_EQ(ep.nd_min, nd_min);
        // The per-chart reads: edge_params' fields of one chart.
        const ChartSpanParams tp = map.total_span_params(c, span);
        const ChartSpanParams bp = map.bridge_span_params(c, span);
        ASSERT_EQ(tp.max, d_max);
        ASSERT_EQ(tp.at_max, nd_max);
        ASSERT_EQ(bp.max, d_min);
        ASSERT_EQ(bp.at_max, nd_min);
      }
    }
  };
  int step = 0;
  for (int burst = 0; burst < 6; ++burst) {
    // Grow: mostly adds, so the peaks climb.
    for (int k = 0; k < 60; ++k, ++step) {
      if (live.empty() || rng.bernoulli(0.7)) {
        const Op op{rng.uniform_i32(0, kChannels - 1),
                    IntInterval::spanning(rng.uniform_i32(0, width - 1),
                                          rng.uniform_i32(0, width - 1)),
                    rng.uniform_i32(1, 3), rng.bernoulli(0.3)};
        live.push_back(op);
        apply(op, +1);
      } else {
        const auto i = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
        apply(live[i], -1);
        live[i] = live.back();
        live.pop_back();
      }
      check(step);
    }
    // Drain: remove everything, taking every peak back down to 0.
    while (!live.empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
      apply(live[i], -1);
      live[i] = live.back();
      live.pop_back();
      check(step++);
    }
    for (std::int32_t c = 0; c < kChannels; ++c) {
      EXPECT_EQ(map.channel_params(c),
                (ChannelDensityParams{0, width, 0, width}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace bgr
