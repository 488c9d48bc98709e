#include "bgr/route/routing_graph.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "bgr/common/rng.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/route/router.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

using testutil::ChainCircuit;

struct Fixture {
  ChainCircuit c;
  Placement pl;
  TechParams tech;
  FeedthroughAssignment assignment{0};

  Fixture() : pl(c.make_placement()), assignment(c.nl.net_count()) {
    assign_external_pins(c.nl, pl);
    const IdVector<NetId, double> order(
        static_cast<std::size_t>(c.nl.net_count()), 0.0);
    auto outcome = assign_feedthroughs(c.nl, pl, order, false);
    BGR_CHECK(outcome.complete());
    assignment = std::move(outcome.assignment);
  }

  RoutingGraph graph(NetId n) const {
    return RoutingGraph(c.nl, pl, tech, assignment, n);
  }
};

TEST(RoutingGraph, TerminalsConnected) {
  Fixture f;
  for (const NetId n : f.c.nl.nets()) {
    const RoutingGraph g = f.graph(n);
    EXPECT_TRUE(g.graph().connects(g.terminal_vertices()));
    EXPECT_GE(g.terminal_vertices().size(), 2u);
    EXPECT_GE(g.driver_vertex(), 0);
  }
}

TEST(RoutingGraph, EdgeInfosAlignWithGraph) {
  Fixture f;
  const RoutingGraph g = f.graph(f.c.n0);
  for (std::int32_t e = 0; e < g.graph().edge_count(); ++e) {
    const RouteEdgeInfo& info = g.edge_info(e);
    switch (info.kind) {
      case RouteEdgeKind::kTrunk:
        EXPECT_GT(info.span.length(), 1);
        EXPECT_GT(info.length_um, 0.0);
        break;
      case RouteEdgeKind::kTermLink:
        EXPECT_EQ(info.span.length(), 1);
        EXPECT_DOUBLE_EQ(info.length_um, 0.0);
        break;
      case RouteEdgeKind::kFeed:
        EXPECT_EQ(info.span.length(), 1);
        EXPECT_DOUBLE_EQ(info.length_um, f.tech.row_cross_um());
        break;
    }
  }
}

TEST(RoutingGraph, SameRowNetHasAlternatives) {
  Fixture f;
  // n0 joins two row-0 cells with both-sided pins: channels 0 and 1 give a
  // cycle, so non-bridge edges exist.
  const RoutingGraph g = f.graph(f.c.n0);
  EXPECT_FALSE(g.non_bridge_edges().empty());
  EXPECT_FALSE(g.is_tree());
}

TEST(RoutingGraph, DeletionKeepsTerminalsConnected) {
  Fixture f;
  RoutingGraph g = f.graph(f.c.n0);
  while (!g.is_tree()) {
    const auto candidates = g.non_bridge_edges();
    ASSERT_FALSE(candidates.empty());
    (void)g.delete_edge(candidates.front());
    EXPECT_TRUE(g.graph().connects(g.terminal_vertices()));
  }
  // A tree has no deletable edges left.
  EXPECT_TRUE(g.non_bridge_edges().empty());
}

TEST(RoutingGraph, DeleteBridgeRejected) {
  Fixture f;
  RoutingGraph g = f.graph(f.c.n0);
  while (!g.is_tree()) {
    (void)g.delete_edge(g.non_bridge_edges().front());
  }
  // Every remaining edge is a bridge now.
  for (const auto e : g.alive_edges()) {
    EXPECT_TRUE(g.is_bridge(e));
    EXPECT_THROW((void)g.delete_edge(e), CheckError);
  }
}

TEST(RoutingGraph, PruneRemovesDanglingBranches) {
  Fixture f;
  RoutingGraph g = f.graph(f.c.n0);
  while (!g.is_tree()) {
    (void)g.delete_edge(g.non_bridge_edges().front());
  }
  // After reduction every leaf vertex is a terminal.
  const SmallGraph& sg = g.graph();
  for (std::int32_t v = 0; v < sg.vertex_count(); ++v) {
    if (!sg.vertex_alive(v)) continue;
    if (sg.degree(v) == 1) {
      EXPECT_EQ(g.vertex_info(v).kind, RouteVertexKind::kTerminal);
    }
  }
}

TEST(RoutingGraph, TentativeLengthNeverBelowFinal) {
  Fixture f;
  RoutingGraph g = f.graph(f.c.a);
  const double initial = g.tentative_length_um();
  while (!g.is_tree()) {
    (void)g.delete_edge(g.non_bridge_edges().front());
  }
  // Deleting edges can only lengthen (or keep) the shortest-path tree.
  EXPECT_GE(g.tentative_length_um() + 1e-9, initial);
  // On a tree the tentative tree is the tree itself.
  EXPECT_NEAR(g.tentative_length_um(), g.alive_length_um(), 1e-9);
}

TEST(RoutingGraph, SkipEdgeEvaluatesHypothetically) {
  Fixture f;
  RoutingGraph g = f.graph(f.c.n0);
  const auto candidates = g.non_bridge_edges();
  ASSERT_FALSE(candidates.empty());
  const double before = g.tentative_length_um();
  const double with_skip = g.tentative_length_um(candidates.front());
  EXPECT_GE(with_skip + 1e-9, before);
  // The graph itself is unchanged.
  EXPECT_TRUE(g.graph().edge_alive(candidates.front()));
}

TEST(RoutingGraph, EstimatedLengthIncludesAllowances) {
  Fixture f;
  const RoutingGraph g = f.graph(f.c.n0);
  const double est = g.estimated_length_um();
  const double phys = g.tentative_length_um();
  // Two terminals → at least 2 × channel-depth allowance.
  EXPECT_GE(est, phys + 2.0 * f.tech.channel_depth_est_um - 1e-9);
}

TEST(RoutingGraph, PadNetUsesAssignedCrossings) {
  Fixture f;
  const RoutingGraph g = f.graph(f.c.a);
  // Net a requires crossing row 1 (pad on top, sink on row 0): at least
  // one feed edge must exist.
  bool has_feed = false;
  for (const auto e : g.alive_edges()) {
    has_feed = has_feed || g.edge_info(e).kind == RouteEdgeKind::kFeed;
  }
  EXPECT_TRUE(has_feed);
}

TEST(RoutingGraph, DifferentialShadowMirrors) {
  // Build a small differential design and check mirrored construction.
  Netlist nl{Library::make_ecl_default()};
  const CellTypeId ddrv = nl.library().find("DDRV");
  const CellTypeId drcv = nl.library().find("DRCV");
  const CellId drv = nl.add_cell("drv", ddrv);
  const CellId rcv = nl.add_cell("rcv", drcv);
  const NetId nt = nl.add_net("nt");
  const NetId nc = nl.add_net("nc");
  auto pin = [&](CellId c, const char* p) { return nl.cell_type(c).find_pin(p); };
  (void)nl.connect(nt, drv, pin(drv, "OT"));
  (void)nl.connect(nc, drv, pin(drv, "OC"));
  (void)nl.connect(nt, rcv, pin(rcv, "IT"));
  (void)nl.connect(nc, rcv, pin(rcv, "IC"));
  nl.make_differential(nt, nc);
  Placement pl(3, 14);
  pl.place(nl, drv, RowId{0}, 0);
  pl.place(nl, rcv, RowId{2}, 6);
  IdVector<NetId, double> order(2, 0.0);
  auto outcome = assign_feedthroughs(nl, pl, order, false);
  ASSERT_TRUE(outcome.complete());
  TechParams tech;
  const RoutingGraph primary(nl, pl, tech, outcome.assignment, nt);
  const RoutingGraph shadow(nl, pl, tech, outcome.assignment, nc, nt, 1);
  ASSERT_EQ(primary.graph().edge_count(), shadow.graph().edge_count());
  for (std::int32_t e = 0; e < primary.graph().edge_count(); ++e) {
    EXPECT_EQ(primary.edge_info(e).kind, shadow.edge_info(e).kind);
    EXPECT_EQ(primary.edge_info(e).channel, shadow.edge_info(e).channel);
    // Shadow spans sit exactly one column to the right.
    EXPECT_EQ(primary.edge_info(e).span.lo + 1, shadow.edge_info(e).span.lo);
    EXPECT_EQ(primary.edge_info(e).span.hi + 1, shadow.edge_info(e).span.hi);
  }
}


// The pruning after a deletion never removes a bridge (DESIGN.md §5), so a
// deletion changes the bridge chart d_m only through new bridges. Checked
// by deleting random non-bridges, one at a time down to a tree, on every
// net's graph of generated designs and of C1P1.
TEST(RoutingGraph, PruningNeverRemovesABridge) {
  std::vector<Dataset> designs;
  for (const std::uint64_t seed : {3u, 8u, 21u}) {
    designs.push_back(generate_circuit(testutil::small_spec(seed)));
    designs.push_back(generate_circuit(testutil::shard_spec(seed, 4)));
  }
  designs.push_back(make_dataset("C1P1"));
  Rng rng(29);
  std::int64_t pruned = 0;
  for (Dataset& ds : designs) {
    const auto pipeline = run_assignment_pipeline(
        ds.netlist, ds.placement,
        IdVector<NetId, double>(static_cast<std::size_t>(ds.netlist.net_count()),
                                0.0));
    for (const NetId n : ds.netlist.nets()) {
      const Net& net = ds.netlist.net(n);
      RoutingGraph g =
          net.is_differential() && !net.diff_primary
              ? RoutingGraph(ds.netlist, ds.placement, ds.tech,
                             pipeline.assignment, n, net.diff_partner, 1)
              : RoutingGraph(ds.netlist, ds.placement, ds.tech,
                             pipeline.assignment, n);
      while (!g.is_tree()) {
        const auto candidates = g.non_bridge_edges();
        ASSERT_FALSE(candidates.empty());
        const auto e = candidates[static_cast<std::size_t>(rng.uniform_i32(
            0, static_cast<std::int32_t>(candidates.size()) - 1))];
        std::vector<char> bridge(static_cast<std::size_t>(g.graph().edge_count()));
        for (std::int32_t k = 0; k < g.graph().edge_count(); ++k) {
          bridge[static_cast<std::size_t>(k)] = g.is_bridge(k) ? 1 : 0;
        }
        const auto result = g.delete_edge(e);
        ASSERT_EQ(result.removed_edges.front(), e);
        for (std::size_t i = 1; i < result.removed_edges.size(); ++i) {
          const auto removed = result.removed_edges[i];
          ASSERT_FALSE(bridge[static_cast<std::size_t>(removed)])
              << ds.name << " net " << net.name << ": deleting edge " << e
              << " pruned bridge " << removed;
          ++pruned;
        }
      }
    }
  }
  EXPECT_GT(pruned, 0) << "no deletion pruned a tail";
}

// ---------------------------------------------------------------------------
// reset(): a graph reset mid-routing must equal a fresh build bit for bit.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_graph(const RoutingGraph& got, const RoutingGraph& want,
                       const std::string& where) {
  const SmallGraph& a = got.graph();
  const SmallGraph& b = want.graph();
  ASSERT_EQ(a.vertex_count(), b.vertex_count()) << where;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << where;
  EXPECT_EQ(a.alive_vertex_count(), b.alive_vertex_count()) << where;
  EXPECT_EQ(a.alive_edge_count(), b.alive_edge_count()) << where;
  EXPECT_EQ(got.terminal_vertices(), want.terminal_vertices()) << where;
  EXPECT_EQ(got.driver_vertex(), want.driver_vertex()) << where;
  for (std::int32_t v = 0; v < a.vertex_count(); ++v) {
    ASSERT_EQ(a.vertex_alive(v), b.vertex_alive(v)) << where << " vertex " << v;
    // Adjacency order drives the bridge DFS and the search's tie-breaks.
    ASSERT_EQ(a.incident_edges(v), b.incident_edges(v))
        << where << " adjacency of vertex " << v;
    const RouteVertexInfo& vi = got.vertex_info(v);
    const RouteVertexInfo& wi = want.vertex_info(v);
    EXPECT_TRUE(vi.kind == wi.kind && vi.terminal == wi.terminal &&
                vi.channel == wi.channel && vi.x == wi.x)
        << where << " vertex info " << v;
  }
  for (std::int32_t e = 0; e < a.edge_count(); ++e) {
    const SmallGraph::Edge& x = a.edge(e);
    const SmallGraph::Edge& y = b.edge(e);
    ASSERT_TRUE(x.u == y.u && x.v == y.v && x.alive == y.alive &&
                bits(x.weight) == bits(y.weight))
        << where << " edge " << e;
    EXPECT_EQ(got.is_bridge(e), want.is_bridge(e)) << where << " bridge " << e;
    const RouteEdgeInfo& ei = got.edge_info(e);
    const RouteEdgeInfo& fi = want.edge_info(e);
    EXPECT_TRUE(ei.kind == fi.kind && ei.channel == fi.channel &&
                ei.span.lo == fi.span.lo && ei.span.hi == fi.span.hi &&
                bits(ei.length_um) == bits(fi.length_um))
        << where << " edge info " << e;
  }
  const SearchCache& c = got.search_cache();
  const SearchCache& d = want.search_cache();
  EXPECT_EQ(c.valid, d.valid) << where;
  ASSERT_EQ(c.dist.size(), d.dist.size()) << where;
  for (std::size_t i = 0; i < c.dist.size(); ++i) {
    EXPECT_EQ(bits(c.dist[i]), bits(d.dist[i])) << where << " dist " << i;
  }
  EXPECT_EQ(c.seq, d.seq) << where;
  EXPECT_EQ(c.settle_order, d.settle_order) << where;
  EXPECT_EQ(c.tree, d.tree) << where;
  EXPECT_EQ(c.in_tree, d.in_tree) << where;
}

TEST(RoutingGraphReset, CyclesOfDeletionAndResetMatchFreshBuilds) {
  const Dataset ds = make_dataset("C1P1");
  Netlist nl = ds.netlist;
  Placement pl = ds.placement;
  const auto pipeline = run_assignment_pipeline(
      nl, pl,
      IdVector<NetId, double>(static_cast<std::size_t>(nl.net_count()), 0.0));
  for (const PathSearchBackend backend :
       {PathSearchBackend::kCached, PathSearchBackend::kDijkstra}) {
    PathSearchEngine engine(backend, nullptr);
    Rng rng(17);
    std::int32_t resets = 0;
    for (const NetId n : nl.nets()) {
      const Net& net = nl.net(n);
      const bool shadow = net.is_differential() && !net.diff_primary;
      auto build = [&] {
        RoutingGraph g =
            shadow ? RoutingGraph(nl, pl, ds.tech, pipeline.assignment, n,
                                  net.diff_partner, 1)
                   : RoutingGraph(nl, pl, ds.tech, pipeline.assignment, n);
        g.set_path_search(&engine);
        return g;
      };
      const RoutingGraph fresh = build();
      if (fresh.non_bridge_edges().empty()) continue;
      RoutingGraph g = build();
      for (std::int32_t cycle = 0; cycle < 3; ++cycle) {
        // Delete a random prefix of the way to a tree (the last cycle
        // goes all the way), then reset.
        const std::int32_t steps = cycle == 2 ? 1 << 30 : rng.uniform_i32(1, 6);
        for (std::int32_t k = 0; k < steps && !g.is_tree(); ++k) {
          const auto candidates = g.non_bridge_edges();
          const auto pick = rng.uniform_i32(
              0, static_cast<std::int32_t>(candidates.size()) - 1);
          (void)g.delete_edge(candidates[static_cast<std::size_t>(pick)]);
        }
        g.reset();
        ++resets;
        expect_same_graph(g, fresh, nl.net(n).name + " cycle " +
                                        std::to_string(cycle));
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(resets, 0);
  }
}

TEST(RoutingGraphReset, LiveRouterGraphsResetToFreshBuilds) {
  // Reset copies of the router's own graphs at commit points of every
  // phase (initial routing and the re-route phases), and once more at the
  // end, and compare each with a fresh build over the router's final
  // placement and assignment.
  Dataset ds = generate_circuit(testutil::small_spec(71));
  RouterOptions options;
  options.shard_deletion = false;  // observer sees the live graphs
  PathSearchEngine engine(PathSearchBackend::kCached, nullptr);
  const GlobalRouter* router_ptr = nullptr;
  std::int32_t commits = 0;
  std::int32_t compared = 0;
  auto compare = [&](const GlobalRouter& router, NetId n, const char* when) {
    const Net& net = ds.netlist.net(n);
    RoutingGraph live = router.net_graph(n);
    live.set_path_search(&engine);
    live.reset();
    const bool shadow = net.is_differential() && !net.diff_primary;
    RoutingGraph fresh =
        shadow ? RoutingGraph(ds.netlist, router.placement(), ds.tech,
                              router.assignment(), n, net.diff_partner, 1)
               : RoutingGraph(ds.netlist, router.placement(), ds.tech,
                              router.assignment(), n);
    fresh.set_path_search(&engine);
    expect_same_graph(live, fresh, net.name + " " + when);
    ++compared;
  };
  options.deletion_observer = [&](NetId n, std::int32_t) {
    if (++commits % 7 != 0) return;
    compare(*router_ptr, n, "mid-routing");
    const Net& net = ds.netlist.net(n);
    if (net.is_differential()) {
      compare(*router_ptr, net.diff_partner, "mid-routing");
    }
  };
  GlobalRouter router(ds.netlist, ds.placement, ds.tech, ds.constraints,
                      options);
  router_ptr = &router;
  const RouteOutcome outcome = router.run();
  std::int64_t reroutes = 0;
  for (const PhaseStats& ph : outcome.phases) reroutes += ph.reroutes;
  EXPECT_GT(reroutes, 0) << "no re-route phase ran";
  for (const NetId n : ds.netlist.nets()) compare(router, n, "final");
  EXPECT_GT(compared, ds.netlist.net_count());
}

}  // namespace
}  // namespace bgr
