#include "bgr/timing/lower_bound.hpp"

#include <gtest/gtest.h>

#include "bgr/fuzz/spec_sampler.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/route/router.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

using testutil::ChainCircuit;

TEST(LowerBound, HalfPerimeterHandCase) {
  ChainCircuit c;
  const Placement pl = c.make_placement();
  TechParams tech;
  // Net n0: g0.O at column 2+1=3 (BUF1 "O" offset 1), g1.I0 at column 14,
  // both on row 0 → Δx = 11 pitches = 33 um, Δy = 0.
  EXPECT_NEAR(net_half_perimeter_um(c.nl, pl, tech, c.n0), 33.0, 1e-9);
  // Net n1: g1.O at column 14+2=16 row 0, ff.D at column 8 row 1:
  // Δx = 8 pitches = 24 um, Δy = one row = 60 um.
  EXPECT_NEAR(net_half_perimeter_um(c.nl, pl, tech, c.n1), 84.0, 1e-9);
}

TEST(LowerBound, PadNetsReachChipEdge) {
  ChainCircuit c;
  Placement pl = c.make_placement();
  TechParams tech;
  pl.pad_site(c.pad_a).assigned_x = 3;
  // Net a: pad A at (x=3, top of 2-row chip → y=120), g0.I0 at column 2,
  // row 0 → y = 30. HPWL = 1·3 + 90 = 93 um.
  EXPECT_NEAR(net_half_perimeter_um(c.nl, pl, tech, c.a), 93.0, 1e-9);
}

TEST(LowerBound, DelayBoundExceedsZeroWire) {
  ChainCircuit c;
  const Placement pl = c.make_placement();
  TechParams tech;
  DelayGraph dg(c.nl);
  const double zero_wire = dg.critical_delay_ps();
  const double lb = lower_bound_delay_ps(dg, pl, tech);
  EXPECT_GT(lb, zero_wire);
}

TEST(LowerBound, MultiPitchNetsScaleCapacitance) {
  ChainCircuit c;
  const Placement pl = c.make_placement();
  TechParams tech;
  const double um = 100.0;
  EXPECT_NEAR(tech.wire_cap_pf(um, 2), 2.0 * tech.wire_cap_pf(um, 1), 1e-15);
}

TEST(LowerBound, BoundIsBelowAnyRoutedLength) {
  // Property: HPWL is a lower bound on any tree length over the terminals.
  ChainCircuit c;
  const Placement pl = c.make_placement();
  TechParams tech;
  // Manhattan star length from the driver is an upper bound on HPWL.
  for (const NetId n : c.nl.nets()) {
    const double hpwl = net_half_perimeter_um(c.nl, pl, tech, n);
    double star = 0.0;
    const auto terms = c.nl.net_terminals(n);
    const double x0 =
        static_cast<double>(pl.terminal_column(c.nl, terms[0])) *
        tech.grid_pitch_um;
    for (const TerminalId t : terms) {
      star += std::abs(static_cast<double>(pl.terminal_column(c.nl, t)) *
                           tech.grid_pitch_um -
                       x0);
    }
    EXPECT_LE(hpwl, star + 2.0 * 60.0 * 2.0 + 1e-9);
  }
}

TEST(LowerBound, RowCrossingCostPricesEveryFeedEdge) {
  // net_length_lower_bound_um prices one row crossing at exactly
  // row_crossing_cost_um; it stays a lower bound only while every feed
  // edge of every routing graph weighs exactly that. Pin the cross-module
  // identity on a fuzz-sampled design.
  Dataset design = generate_circuit(sample_spec(7));
  const double cross = row_crossing_cost_um(design.tech);
  EXPECT_NEAR(cross,
              design.tech.row_cross_um() +
                  2.0 * design.tech.channel_depth_est_um,
              1e-12);
  GlobalRouter router(design.netlist, std::move(design.placement),
                      design.tech, design.constraints, RouterOptions{});
  (void)router.run();  // graphs are built lazily by the pipeline
  std::int64_t feed_edges = 0;
  for (const NetId n : design.netlist.nets()) {
    const RoutingGraph& g = router.net_graph(n);
    for (std::int32_t e = 0; e < g.graph().edge_count(); ++e) {
      if (g.edge_info(e).kind != RouteEdgeKind::kFeed) continue;
      ++feed_edges;
      EXPECT_DOUBLE_EQ(g.graph().edge(e).weight, cross);
    }
  }
  EXPECT_GT(feed_edges, 0);
}

}  // namespace
}  // namespace bgr
