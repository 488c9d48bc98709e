#include "bgr/route/router.hpp"

#include <gtest/gtest.h>

#include "bgr/gen/generator.hpp"
#include "bgr/obs/metrics.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

/// End-to-end invariants of the global router over a sweep of generated
/// circuits (TEST_P over seeds).
class RouterProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Dataset dataset_ = generate_circuit(testutil::small_spec(GetParam()));
};

TEST_P(RouterProperty, AllNetsReducedToTrees) {
  Netlist nl = dataset_.netlist;
  GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                      dataset_.constraints, RouterOptions{});
  const RouteOutcome outcome = router.run();
  EXPECT_GT(outcome.total_length_um, 0.0);
  for (const NetId n : nl.nets()) {
    const RoutingGraph& g = router.net_graph(n);
    EXPECT_TRUE(g.is_tree());
    EXPECT_TRUE(g.graph().connects(g.terminal_vertices()));
    EXPECT_TRUE(g.non_bridge_edges().empty());
  }
}

TEST_P(RouterProperty, DensityMapMatchesFinalTrees) {
  Netlist nl = dataset_.netlist;
  GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                      dataset_.constraints, RouterOptions{});
  (void)router.run();
  // Recompute d_M from scratch out of the final trees and compare.
  const DensityMap& incremental = router.density();
  DensityMap fresh(router.placement().channel_count(),
                   router.placement().width());
  for (const NetId n : nl.nets()) {
    const RoutingGraph& g = router.net_graph(n);
    for (const auto e : g.alive_edges()) {
      const RouteEdgeInfo& info = g.edge_info(e);
      if (!info.is_trunk()) continue;
      fresh.add_total(info.channel, info.span, nl.net(n).pitch_width);
      // Every edge of a tree is a bridge.
      EXPECT_TRUE(g.is_bridge(e));
      fresh.add_bridge(info.channel, info.span, nl.net(n).pitch_width);
    }
  }
  for (std::int32_t c = 0; c < fresh.channel_count(); ++c) {
    for (std::int32_t x = 0; x < fresh.width(); ++x) {
      ASSERT_EQ(incremental.total_at(c, x), fresh.total_at(c, x))
          << "channel " << c << " column " << x;
      ASSERT_EQ(incremental.bridge_at(c, x), fresh.bridge_at(c, x))
          << "channel " << c << " column " << x;
    }
  }
}

TEST_P(RouterProperty, DifferentialPairsStayMirrored) {
  Netlist nl = dataset_.netlist;
  GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                      dataset_.constraints, RouterOptions{});
  (void)router.run();
  for (const NetId n : nl.nets()) {
    const Net& net = nl.net(n);
    if (!net.is_differential() || !net.diff_primary) continue;
    const RoutingGraph& a = router.net_graph(n);
    const RoutingGraph& b = router.net_graph(net.diff_partner);
    ASSERT_EQ(a.graph().edge_count(), b.graph().edge_count());
    for (std::int32_t e = 0; e < a.graph().edge_count(); ++e) {
      ASSERT_EQ(a.graph().edge_alive(e), b.graph().edge_alive(e))
          << "pair " << net.name << " diverged at edge " << e;
      if (a.graph().edge_alive(e)) {
        EXPECT_EQ(a.edge_info(e).span.lo + 1, b.edge_info(e).span.lo);
      }
    }
  }
}

TEST_P(RouterProperty, DeterministicAcrossRuns) {
  RouteOutcome first;
  RouteOutcome second;
  {
    Netlist nl = dataset_.netlist;
    GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                        dataset_.constraints, RouterOptions{});
    first = router.run();
  }
  {
    Netlist nl = dataset_.netlist;
    GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                        dataset_.constraints, RouterOptions{});
    second = router.run();
  }
  EXPECT_DOUBLE_EQ(first.critical_delay_ps, second.critical_delay_ps);
  EXPECT_DOUBLE_EQ(first.total_length_um, second.total_length_um);
}

TEST_P(RouterProperty, UnconstrainedModeIgnoresConstraints) {
  Netlist nl = dataset_.netlist;
  RouterOptions options;
  options.use_constraints = false;
  GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                      dataset_.constraints, options);
  const RouteOutcome outcome = router.run();
  EXPECT_EQ(outcome.violated_constraints, 0);
  EXPECT_EQ(router.analyzer().constraint_count(), 0);
}

TEST_P(RouterProperty, ConstrainedNoWorseOnWorstMargin) {
  // The timing-driven mode must not lose to the area baseline on the
  // constraint margins (measured with the router's own estimates).
  double margin_con = 0.0;
  double margin_unc = 0.0;
  {
    Netlist nl = dataset_.netlist;
    GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                        dataset_.constraints, RouterOptions{});
    margin_con = router.run().worst_margin_ps;
  }
  {
    Netlist nl = dataset_.netlist;
    RouterOptions options;
    options.use_constraints = false;
    GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                        dataset_.constraints, options);
    (void)router.run();
    // Re-measure the margins of the real constraint set on the baseline
    // result.
    TimingAnalyzer check(router.delay_graph(), dataset_.constraints);
    margin_unc = check.worst_margin_ps();
  }
  EXPECT_GE(margin_con, margin_unc - 1e-6);
}

TEST_P(RouterProperty, PhasesReported) {
  Netlist nl = dataset_.netlist;
  GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                      dataset_.constraints, RouterOptions{});
  const RouteOutcome outcome = router.run();
  ASSERT_EQ(outcome.phases.size(), 4u);
  EXPECT_EQ(outcome.phases[0].name, "initial");
  EXPECT_GT(outcome.phases[0].deletions, 0);
  EXPECT_EQ(outcome.phases[3].name, "improve_area");
}

TEST_P(RouterProperty, RunIsSingleShot) {
  Netlist nl = dataset_.netlist;
  GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                      dataset_.constraints, RouterOptions{});
  EXPECT_EQ(router.run_state(), GlobalRouter::RunState::kIdle);
  (void)router.run();
  EXPECT_EQ(router.run_state(), GlobalRouter::RunState::kDone);
  // Re-entry is an explicit contract violation with a diagnostic that
  // names the fix, not silent corruption of consumed inputs.
  try {
    (void)router.run();
    FAIL() << "second run() must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("RoutingSession"), std::string::npos)
        << "diagnostic should point at serve::RoutingSession for re-runs";
  }
}

TEST_P(RouterProperty, CancelRequestStopsAtPhaseBoundary) {
  Netlist nl = dataset_.netlist;
  RouterOptions options;
  std::int32_t polls = 0;
  // Cancel at the second poll: after the pre-flight checks, inside the
  // phase sequence — the router must surface CancelledError (not
  // CheckError) and stay poisoned (kRunning, not kDone).
  options.cancel_requested = [&polls] { return ++polls > 1; };
  GlobalRouter router(nl, dataset_.placement, dataset_.tech,
                      dataset_.constraints, options);
  EXPECT_THROW((void)router.run(), CancelledError);
  EXPECT_EQ(router.run_state(), GlobalRouter::RunState::kRunning);
}

TEST_P(RouterProperty, CancelDuringAssignmentStopsBeforeGraphBuild) {
  // Starve the placement of feedthroughs so assignment needs a feed-cell
  // round, and flip the predicate at the pipeline's second round poll
  // (poll 1 precedes validation, poll 2 the first round): the run must
  // stop inside the setup front, after feed insertion, before any
  // routing graph is built.
  CircuitSpec spec = testutil::small_spec(GetParam());
  spec.gap_fraction = 0.0;
  spec.feed_every = 60;
  Dataset ds = generate_circuit(spec);
  const std::int32_t cells_before = ds.netlist.cell_count();
  Counter& built = MetricsRegistry::global().counter("route.graphs_built",
                                                     MetricScope::kSemantic);
  const std::int64_t built_before = built.value();
  RouterOptions options;
  std::int32_t polls = 0;
  options.cancel_requested = [&polls] { return ++polls > 2; };
  GlobalRouter router(ds.netlist, ds.placement, ds.tech, ds.constraints,
                      options);
  try {
    (void)router.run();
    FAIL() << "run() must throw CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("feedthrough assignment round 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(polls, 3);
  EXPECT_GT(ds.netlist.cell_count(), cells_before) << "no feed round ran";
  EXPECT_EQ(built.value(), built_before) << "graphs built after cancel";
  EXPECT_EQ(router.run_state(), GlobalRouter::RunState::kRunning);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace bgr
