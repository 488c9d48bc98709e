#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "bgr/metrics/experiment.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/router.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

TEST(RouterEdge, NoConstraintsAtAll) {
  CircuitSpec spec = testutil::small_spec(201);
  spec.path_constraints = 0;
  Dataset ds = generate_circuit(spec);
  EXPECT_TRUE(ds.constraints.empty());
  const RunResult r = run_flow(ds, /*constrained=*/true);
  EXPECT_GT(r.delay_ps, 0.0);
  EXPECT_EQ(r.violated_constraints, 0);
}

TEST(RouterEdge, NoBipolarFeatures) {
  CircuitSpec spec = testutil::small_spec(202);
  spec.diff_pairs = 0;
  spec.clock_buffers = 1;  // at least one clock domain is required for FFs
  const Dataset ds = generate_circuit(spec);
  const RunResult r = run_flow(ds, true);
  EXPECT_GT(r.delay_ps, 0.0);
}

TEST(RouterEdge, TwoRowChip) {
  CircuitSpec spec = testutil::small_spec(203);
  spec.rows = 2;
  spec.target_cells = 60;
  const Dataset ds = generate_circuit(spec);
  const RunResult r = run_flow(ds, true);
  EXPECT_GT(r.delay_ps, 0.0);
  EXPECT_GT(r.area_mm2, 0.0);
}

TEST(RouterEdge, ZeroImprovementPasses) {
  const Dataset ds = generate_circuit(testutil::small_spec(204));
  RouterOptions options;
  options.improvement_passes = 0;
  const RunResult r = run_flow(ds, true, options);
  EXPECT_GT(r.delay_ps, 0.0);
  for (const PhaseStats& ph : r.phases) {
    if (ph.name != "initial") {
      EXPECT_EQ(ph.reroutes, 0);
    }
  }
}

TEST(RouterEdge, ElmorePlusSequential) {
  const Dataset ds = generate_circuit(testutil::small_spec(205));
  RouterOptions options;
  options.delay_model = DelayModel::kElmoreRC;
  options.concurrent_initial = false;
  const RunResult r = run_flow(ds, true, options);
  EXPECT_GT(r.delay_ps, 0.0);
}

TEST(RouterEdge, BudgetsPlusElmore) {
  const Dataset ds = generate_circuit(testutil::small_spec(206));
  RouterOptions options;
  options.delay_model = DelayModel::kElmoreRC;
  options.use_net_budgets = true;
  const RunResult r = run_flow(ds, true, options);
  EXPECT_GT(r.delay_ps, 0.0);
}

TEST(RouterEdge, TinyTwoNetDesign) {
  // Smallest meaningful design: one gate between two pads plus clocked
  // register — exercises pad assignment, single crossings, channel stage.
  Netlist nl{Library::make_ecl_default()};
  const Library& lib = nl.library();
  auto pin = [&](CellId c, const char* p) { return nl.cell_type(c).find_pin(p); };
  const CellId g = nl.add_cell("g", lib.find("BUF1"));
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  (void)nl.add_pad_input("A", a, 100, 220);
  (void)nl.connect(a, g, pin(g, "I0"));
  (void)nl.connect(y, g, pin(g, "O"));
  (void)nl.add_pad_output("Y", y, 0.05);
  nl.validate();
  Placement pl(1, 12);
  pl.place(nl, g, RowId{0}, 4);
  const CellId fd = nl.add_cell("fd", lib.find("FEED"));
  pl.place(nl, fd, RowId{0}, 8);
  for (const TerminalId t : nl.terminals()) {
    const Terminal& term = nl.terminal(t);
    if (term.kind == TerminalKind::kCellPin) continue;
    pl.place_pad(t, term.kind == TerminalKind::kPadIn, IntInterval{0, 11});
  }
  GlobalRouter router(nl, std::move(pl), TechParams{}, {}, RouterOptions{});
  const RouteOutcome outcome = router.run();
  // Pads may land directly over the pins, so the physical trunk length can
  // legitimately be zero; the estimate still carries the tap allowances.
  EXPECT_GE(outcome.total_length_um, 0.0);
  for (const NetId n : nl.nets()) {
    EXPECT_TRUE(router.net_graph(n).is_tree());
    EXPECT_GT(router.net_graph(n).estimated_length_um(), 0.0);
  }
  EXPECT_GT(outcome.critical_delay_ps, 0.0);
}

TEST(RouterEdge, ConstraintOnMultiSourceMultiSink) {
  // A constraint with several sources and sinks (the paper defines S_P and
  // T_P as sets).
  const Dataset base = generate_circuit(testutil::small_spec(207));
  DelayGraph dg(base.netlist);
  PathConstraint wide;
  wide.name = "ALL";
  for (const auto v : dg.sources()) wide.sources.push_back(dg.terminal_of(v));
  for (const auto v : dg.sinks()) wide.sinks.push_back(dg.terminal_of(v));
  wide.limit_ps = 1e7;  // generous: structure test, not tension test
  Dataset ds = base;
  ds.constraints.push_back(wide);
  const RunResult r = run_flow(ds, true);
  EXPECT_GT(r.delay_ps, 0.0);
  EXPECT_EQ(r.violated_constraints, 0);
}

TEST(RouterEdge, HarderFeedEveryStressesInsertion) {
  CircuitSpec spec = testutil::small_spec(208);
  spec.feed_every = 50;     // almost no pre-placed feed cells
  spec.gap_fraction = 0.0;  // and no gaps
  const Dataset ds = generate_circuit(spec);
  const RunResult r = run_flow(ds, true);
  EXPECT_GT(r.feed_cells_added, 0);
  EXPECT_GT(r.widen_pitches, 0);
  EXPECT_GT(r.delay_ps, 0.0);
}

TEST(RouterEdge, BackAnnotationRefinementImprovesMargins) {
  const Dataset ds = generate_circuit(testutil::small_spec(209));
  const RunResult base = run_flow(ds, true);
  const RunResult refined = run_flow(ds, true, RouterOptions{}, 1);
  EXPECT_GT(refined.delay_ps, 0.0);
  // Refinement must not lose constraints that were already met, and the
  // refined run reports more phases (the refine_* trio).
  EXPECT_LE(refined.violated_constraints, base.violated_constraints);
  EXPECT_EQ(refined.phases.size(), base.phases.size() + 3);
}

TEST(RouterEdge, EcoRerouteKeepsDesignLegal) {
  const Dataset ds = generate_circuit(testutil::small_spec(211));
  Netlist nl = ds.netlist;
  GlobalRouter router(nl, ds.placement, ds.tech, ds.constraints,
                      RouterOptions{});
  (void)router.run();
  // Rip up and re-route a handful of nets, including a differential shadow
  // (which must be redirected to its primary) and a multi-pitch net.
  std::vector<NetId> targets;
  for (const NetId n : nl.nets()) {
    const Net& net = nl.net(n);
    if (net.is_differential() && !net.diff_primary) targets.push_back(n);
    if (net.pitch_width > 1) targets.push_back(n);
    if (targets.size() >= 4) break;
  }
  targets.push_back(NetId{0});
  const RouteOutcome outcome = router.reroute(targets);
  EXPECT_EQ(outcome.phases.size(), 1u);
  EXPECT_GT(outcome.phases[0].reroutes, 0);
  for (const NetId n : nl.nets()) {
    EXPECT_TRUE(router.net_graph(n).is_tree());
  }
  // ECO must leave the density bookkeeping exact.
  DensityMap fresh(router.placement().channel_count(),
                   router.placement().width());
  for (const NetId n : nl.nets()) {
    const RoutingGraph& g = router.net_graph(n);
    for (const auto e : g.alive_edges()) {
      const RouteEdgeInfo& info = g.edge_info(e);
      if (info.is_trunk()) {
        fresh.add_total(info.channel, info.span, nl.net(n).pitch_width);
      }
    }
  }
  for (std::int32_t c = 0; c < fresh.channel_count(); ++c) {
    for (std::int32_t x = 0; x < fresh.width(); ++x) {
      ASSERT_EQ(router.density().total_at(c, x), fresh.total_at(c, x));
    }
  }
}

TEST(RouterEdge, EcoRerouteRepeatMatchesSplitCalls) {
  // One reroute() call that repeats nets may answer the repeats from the
  // reroute memo; the same nets as single-net calls are one phase each and
  // never do. Both must leave the same trees, charts, margins and
  // bookkeeping.
  const Dataset ds = generate_circuit(testutil::small_spec(211));
  NetId a;
  NetId b;
  for (const NetId n : ds.netlist.nets()) {
    const Net& net = ds.netlist.net(n);
    if (!a.valid() && net.is_differential() && !net.diff_primary) a = n;
    if (!b.valid() && net.pitch_width > 1) b = n;
  }
  ASSERT_TRUE(a.valid()) << "spec lost its differential pairs";
  ASSERT_TRUE(b.valid()) << "spec lost its multi-pitch nets";
  std::vector<NetId> targets{a, b, a, a, b};
  // Then two sweeps over every net: the first changes some trees, so the
  // second must tell memos still valid from memos another net's new tree
  // has made stale.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const NetId n : ds.netlist.nets()) targets.push_back(n);
  }
  Counter& skipped = MetricsRegistry::global().counter(
      "route.reroutes_skipped", MetricScope::kSemantic);

  for (const DelayModel model : {DelayModel::kLumpedC, DelayModel::kElmoreRC}) {
    SCOPED_TRACE(model == DelayModel::kLumpedC ? "lumped" : "elmore-rc");
    struct Routed {
      explicit Routed(const Netlist& nl) : netlist(nl) {}
      Netlist netlist;
      std::vector<std::pair<NetId, std::int32_t>> deletions;
      std::unique_ptr<GlobalRouter> router;
      std::int64_t deleted = 0;
      std::int64_t reroutes = 0;
      std::int64_t skipped = 0;
    };
    auto route = [&](Routed& r, bool split) {
      RouterOptions options;
      options.delay_model = model;
      options.deletion_observer = [&r](NetId net, std::int32_t edge) {
        r.deletions.emplace_back(net, edge);
      };
      r.router = std::make_unique<GlobalRouter>(
          r.netlist, ds.placement, ds.tech, ds.constraints, options);
      (void)r.router->run();
      r.deletions.clear();
      const std::int64_t skipped_before = skipped.value();
      std::vector<RouteOutcome> outcomes;
      if (split) {
        for (const NetId n : targets) outcomes.push_back(r.router->reroute({n}));
      } else {
        outcomes.push_back(r.router->reroute(targets));
      }
      r.skipped = skipped.value() - skipped_before;
      for (const RouteOutcome& o : outcomes) {
        for (const PhaseStats& ph : o.phases) {
          r.deleted += ph.deletions;
          r.reroutes += ph.reroutes;
        }
      }
    };
    Routed once{ds.netlist};
    Routed split{ds.netlist};
    route(once, /*split=*/false);
    route(split, /*split=*/true);

    EXPECT_GT(once.skipped, 0);
    EXPECT_EQ(split.skipped, 0);
    EXPECT_EQ(once.reroutes, static_cast<std::int64_t>(targets.size()));
    EXPECT_EQ(once.reroutes, split.reroutes);
    EXPECT_EQ(once.deleted, split.deleted);
    EXPECT_EQ(once.deletions, split.deletions);
    for (const NetId n : once.netlist.nets()) {
      ASSERT_EQ(once.router->net_graph(n).alive_edges(),
                split.router->net_graph(n).alive_edges())
          << once.netlist.net(n).name;
    }
    const DensityMap& da = once.router->density();
    const DensityMap& db = split.router->density();
    for (std::int32_t c = 0; c < da.channel_count(); ++c) {
      for (std::int32_t x = 0; x < da.width(); ++x) {
        ASSERT_EQ(da.total_at(c, x), db.total_at(c, x));
        ASSERT_EQ(da.bridge_at(c, x), db.bridge_at(c, x));
      }
    }
    const TimingAnalyzer& ta = once.router->analyzer();
    const TimingAnalyzer& tb = split.router->analyzer();
    ASSERT_GT(ta.constraint_count(), 0);
    for (const ConstraintId p : ta.constraints()) {
      const double ma = ta.margin_ps(p);
      const double mb = tb.margin_ps(p);
      EXPECT_EQ(std::memcmp(&ma, &mb, sizeof ma), 0)
          << "constraint " << p.index() << ": " << ma << " vs " << mb;
    }
  }
}

TEST(RouterEdge, EcoRerouteRequiresCompletedRun) {
  const Dataset ds = generate_circuit(testutil::small_spec(212));
  Netlist nl = ds.netlist;
  GlobalRouter router(nl, ds.placement, ds.tech, ds.constraints,
                      RouterOptions{});
  EXPECT_THROW((void)router.reroute({NetId{0}}), CheckError);
}

TEST(RouterEdge, RefineRequiresCompletedRun) {
  const Dataset ds = generate_circuit(testutil::small_spec(210));
  Netlist nl = ds.netlist;
  GlobalRouter router(nl, ds.placement, ds.tech, ds.constraints,
                      RouterOptions{});
  const IdVector<NetId, double> extra(
      static_cast<std::size_t>(nl.net_count()), 0.0);
  EXPECT_THROW((void)router.refine(extra), CheckError);
}

}  // namespace
}  // namespace bgr
