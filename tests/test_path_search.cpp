// Differential battery for the path-search engines (DESIGN.md §11): on
// dozens of fuzz-sampled designs, the cached engine must reproduce the
// reference binary-heap Dijkstra exactly (per-search tentative trees
// during live routing, and the full pipeline outcome: delay, length,
// margins, per-net routed lengths, per-phase deletion counts), and both
// engines must be bit-identical to themselves across 1 and 8 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgr/fuzz/spec_sampler.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/route/path_search.hpp"
#include "bgr/route/router.hpp"

namespace bgr {
namespace {

struct PipelineSnapshot {
  RouteOutcome outcome;
  std::vector<double> net_lengths_um;
  std::vector<double> margins_ps;
};

PipelineSnapshot route_pipeline(const CircuitSpec& spec,
                                PathSearchBackend backend,
                                std::int32_t threads) {
  Dataset design = generate_circuit(spec);
  RouterOptions options;
  options.path_search = backend;
  options.threads = threads;
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  PipelineSnapshot snap;
  snap.outcome = router.run();
  for (const NetId n : design.netlist.nets()) {
    snap.net_lengths_um.push_back(router.net_length_um(n));
  }
  for (const ConstraintId p : router.analyzer().constraints()) {
    snap.margins_ps.push_back(router.analyzer().margin_ps(p));
  }
  return snap;
}

/// Bit-identity of everything the router decided. `compare_path_effort`
/// is off across backends (different pop counts are the cache's whole
/// point) and on across thread counts (the same searches must run either
/// way).
void expect_identical(const PipelineSnapshot& a, const PipelineSnapshot& b,
                      bool compare_path_effort) {
  EXPECT_EQ(a.outcome.critical_delay_ps, b.outcome.critical_delay_ps);
  EXPECT_EQ(a.outcome.total_length_um, b.outcome.total_length_um);
  EXPECT_EQ(a.outcome.violated_constraints, b.outcome.violated_constraints);
  EXPECT_EQ(a.outcome.worst_margin_ps, b.outcome.worst_margin_ps);
  EXPECT_EQ(a.outcome.feed_cells_added, b.outcome.feed_cells_added);
  EXPECT_EQ(a.outcome.widen_pitches, b.outcome.widen_pitches);
  ASSERT_EQ(a.outcome.phases.size(), b.outcome.phases.size());
  for (std::size_t i = 0; i < a.outcome.phases.size(); ++i) {
    const PhaseStats& pa = a.outcome.phases[i];
    const PhaseStats& pb = b.outcome.phases[i];
    EXPECT_EQ(pa.deletions, pb.deletions) << pa.name;
    EXPECT_EQ(pa.reroutes, pb.reroutes) << pa.name;
    EXPECT_EQ(pa.critical_delay_ps, pb.critical_delay_ps) << pa.name;
    EXPECT_EQ(pa.worst_margin_ps, pb.worst_margin_ps) << pa.name;
    EXPECT_EQ(pa.sum_max_density, pb.sum_max_density) << pa.name;
    EXPECT_EQ(pa.sta_relaxations, pb.sta_relaxations) << pa.name;
    if (compare_path_effort) {
      EXPECT_EQ(pa.path_searches, pb.path_searches) << pa.name;
      EXPECT_EQ(pa.path_pops, pb.path_pops) << pa.name;
      EXPECT_EQ(pa.path_relaxations, pb.path_relaxations) << pa.name;
    }
  }
  EXPECT_EQ(a.net_lengths_um, b.net_lengths_um);
  EXPECT_EQ(a.margins_ps, b.margins_ps);
}

/// Runs the reference search standalone on the net's *current* graph
/// (mid-routing, so with real deletions applied) for the no-skip search
/// and a handful of candidate skip edges, and requires the engine's
/// cache-backed cone repair to return bit-identical trees no matter which
/// internal path (cached tree, empty-cone reuse, boundary-seeded repair)
/// answers the query.
void compare_backends_on_graph(const RoutingGraph& g, std::int64_t step) {
  const SmallGraph& sg = g.graph();
  PathSearchScratch dijkstra_scratch;
  PathSearchEngine engine(PathSearchBackend::kCached, nullptr);
  SearchCache cache;
  engine.refresh_cache(sg, g.driver_vertex(), g.terminal_vertices(), &cache);

  std::vector<std::int32_t> skips{SmallGraph::kNone};
  for (const std::int32_t e : g.non_bridge_edges()) {
    skips.push_back(e);
    if (skips.size() >= 9) break;
  }
  for (const std::int32_t skip : skips) {
    std::vector<std::int32_t> dijkstra_tree;
    std::vector<std::int32_t> cached_tree;
    (void)path_search_tree(sg, g.driver_vertex(), g.terminal_vertices(), skip,
                           dijkstra_scratch, &dijkstra_tree);
    engine.tentative_tree(sg, &cache, g.driver_vertex(),
                          g.terminal_vertices(), skip, &cached_tree);
    ASSERT_EQ(dijkstra_tree, cached_tree)
        << "cone repair diverged at deletion step " << step << ", skip "
        << skip;
  }
}

TEST(PathSearchScratch, ReusedArenasForgetOldLabels) {
  PathSearchScratch scratch;
  EXPECT_FALSE(scratch.begin(8, 8));  // first use allocates
  scratch.set_dist(3, 1.5);
  scratch.set_parent_edge(3, 2);
  scratch.mark_edge(5);
  scratch.mark_cone(4);
  EXPECT_TRUE(scratch.begin(8, 8));  // same size: pure epoch bump
  EXPECT_EQ(scratch.dist(3), PathSearchScratch::kInf);
  EXPECT_EQ(scratch.parent_edge(3), SmallGraph::kNone);
  EXPECT_FALSE(scratch.edge_marked(5));
  EXPECT_FALSE(scratch.in_cone(4));
  EXPECT_FALSE(scratch.begin(16, 8));  // growth reported
}

TEST(PathSearchDifferential, TentativeTreesBitIdenticalDuringRouting) {
  for (const std::uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Dataset design = generate_circuit(sample_spec(seed));

    std::unique_ptr<GlobalRouter> router;
    std::int64_t steps = 0;
    RouterOptions options;
    options.deletion_observer = [&](NetId net, std::int32_t) {
      if (::testing::Test::HasFatalFailure()) return;
      // Every committed deletion changes some graph; cross-check the first
      // few dozen states so the battery stays fast.
      if (++steps > 40) return;
      compare_backends_on_graph(router->net_graph(net), steps);
    };
    router = std::make_unique<GlobalRouter>(design.netlist,
                                            std::move(design.placement),
                                            design.tech, design.constraints,
                                            options);
    (void)router->run();
    EXPECT_GT(steps, 0) << "observer never fired (seed " << seed << ")";
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PathSearchDifferential, PipelineBitIdenticalAcrossBackends) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const CircuitSpec spec = sample_spec(seed);
    const PipelineSnapshot reference =
        route_pipeline(spec, PathSearchBackend::kDijkstra, 1);
    for (const PathSearchBackend backend :
         {PathSearchBackend::kDijkstra, PathSearchBackend::kCached}) {
      SCOPED_TRACE(path_search_backend_name(backend));
      const bool is_reference = backend == PathSearchBackend::kDijkstra;
      const PipelineSnapshot serial =
          is_reference ? reference : route_pipeline(spec, backend, 1);
      if (!is_reference) {
        expect_identical(serial, reference, /*compare_path_effort=*/false);
      }
      // Every fifth seed also crosses thread counts, per engine: the
      // per-slot arenas must not leak state between searches.
      if (seed % 5 == 0) {
        expect_identical(serial, route_pipeline(spec, backend, 8),
                         /*compare_path_effort=*/true);
      }
    }
  }
}

}  // namespace
}  // namespace bgr
