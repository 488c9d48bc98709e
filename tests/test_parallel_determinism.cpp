// The exec/ determinism contract, end to end: the full router pipeline
// must produce a bit-identical RouteOutcome — critical delay, total
// length, violations, feed cells, per-phase deletion counts, and per-net
// routed lengths — for 1 and N threads, on several generated designs.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bgr/gen/generator.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/router.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

struct RunResultSnapshot {
  RouteOutcome outcome;
  std::vector<double> net_lengths_um;
};

RunResultSnapshot route_design(Dataset design, RouterOptions options,
                               std::int32_t threads) {
  options.threads = threads;
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  RunResultSnapshot snap;
  snap.outcome = router.run();
  for (const NetId n : design.netlist.nets()) {
    snap.net_lengths_um.push_back(router.net_length_um(n));
  }
  return snap;
}

/// Regenerates the design per run: the router inserts feed cells into the
/// netlist it routes, so the two thread counts must not share one Dataset.
RunResultSnapshot route_with_threads(const CircuitSpec& spec,
                                     RouterOptions options,
                                     std::int32_t threads) {
  return route_design(generate_circuit(spec), options, threads);
}

void expect_outcomes_identical(const RouteOutcome& a, const RouteOutcome& b) {
  // EXPECT_EQ on doubles throughout: the contract is bit-identity, not
  // tolerance.
  EXPECT_EQ(a.critical_delay_ps, b.critical_delay_ps);
  EXPECT_EQ(a.total_length_um, b.total_length_um);
  EXPECT_EQ(a.violated_constraints, b.violated_constraints);
  EXPECT_EQ(a.worst_margin_ps, b.worst_margin_ps);
  EXPECT_EQ(a.feed_cells_added, b.feed_cells_added);
  EXPECT_EQ(a.widen_pitches, b.widen_pitches);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const PhaseStats& pa = a.phases[i];
    const PhaseStats& pb = b.phases[i];
    EXPECT_EQ(pa.deletions, pb.deletions) << pa.name;
    EXPECT_EQ(pa.reroutes, pb.reroutes) << pa.name;
    EXPECT_EQ(pa.critical_delay_ps, pb.critical_delay_ps) << pa.name;
    EXPECT_EQ(pa.sum_max_density, pb.sum_max_density) << pa.name;
    // The timing-engine counters reach the phase only through the
    // router's per-slot absorb: a worker slot left unabsorbed loses them.
    EXPECT_EQ(pa.sta_updates, pb.sta_updates) << pa.name;
    EXPECT_EQ(pa.sta_dirty_vertices, pb.sta_dirty_vertices) << pa.name;
    EXPECT_EQ(pa.sta_relaxations, pb.sta_relaxations) << pa.name;
  }
}

void expect_bit_identical(const RunResultSnapshot& a,
                          const RunResultSnapshot& b) {
  expect_outcomes_identical(a.outcome, b.outcome);
  ASSERT_EQ(a.net_lengths_um.size(), b.net_lengths_um.size());
  for (std::size_t i = 0; i < a.net_lengths_um.size(); ++i) {
    EXPECT_EQ(a.net_lengths_um[i], b.net_lengths_um[i]) << "net " << i;
  }
}

TEST(ParallelDeterminism, SmallDesignsOneVsFourThreads) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const CircuitSpec spec = testutil::small_spec(seed);
    const auto serial = route_with_threads(spec, RouterOptions{}, 1);
    const auto parallel = route_with_threads(spec, RouterOptions{}, 4);
    expect_bit_identical(serial, parallel);
  }
}

TEST(ParallelDeterminism, EightThreadsAndOddCounts) {
  const CircuitSpec spec = testutil::small_spec(11);
  const auto serial = route_with_threads(spec, RouterOptions{}, 1);
  for (const std::int32_t threads : {2, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(serial,
                         route_with_threads(spec, RouterOptions{}, threads));
  }
}

TEST(ParallelDeterminism, ElmoreRcModel) {
  const CircuitSpec spec = testutil::small_spec(5);
  RouterOptions options;
  options.delay_model = DelayModel::kElmoreRC;
  expect_bit_identical(route_with_threads(spec, options, 1),
                       route_with_threads(spec, options, 4));
}

TEST(ParallelDeterminism, SequentialBaselineAndNetBudgets) {
  const CircuitSpec spec = testutil::small_spec(9);
  {
    RouterOptions options;
    options.concurrent_initial = false;
    expect_bit_identical(route_with_threads(spec, options, 1),
                         route_with_threads(spec, options, 4));
  }
  {
    RouterOptions options;
    options.use_net_budgets = true;
    expect_bit_identical(route_with_threads(spec, options, 1),
                         route_with_threads(spec, options, 4));
  }
}

/// Everything a routed multi-shard design exposes: the outcome, every
/// net's alive edges, both density charts, the constraint margins, the
/// committed deletion sequence and the semantic counters.
struct FullSnapshot {
  RouteOutcome outcome;
  std::vector<std::vector<std::int32_t>> alive_edges;
  std::vector<std::int32_t> charts;
  std::vector<double> margins;
  std::vector<std::pair<std::int32_t, std::int32_t>> deletions;
  std::string semantic;
  std::int32_t shards = 0;
};

FullSnapshot route_fully(const CircuitSpec& spec, std::int32_t threads) {
  MetricsRegistry::global().reset();
  Dataset design = generate_circuit(spec);
  RouterOptions options;
  options.threads = threads;
  FullSnapshot snap;
  options.deletion_observer = [&snap](NetId n, std::int32_t e) {
    snap.deletions.emplace_back(n.index(), e);
  };
  GlobalRouter router(design.netlist, std::move(design.placement),
                      design.tech, design.constraints, options);
  snap.outcome = router.run();
  snap.shards = router.shard_decomposition().shard_count();
  for (const NetId n : design.netlist.nets()) {
    snap.alive_edges.push_back(router.net_graph(n).alive_edges());
  }
  const DensityMap& density = router.density();
  for (std::int32_t c = 0; c < density.channel_count(); ++c) {
    for (std::int32_t x = 0; x < density.width(); ++x) {
      snap.charts.push_back(density.total_at(c, x));
      snap.charts.push_back(density.bridge_at(c, x));
    }
  }
  for (const ConstraintId p : router.analyzer().constraints()) {
    snap.margins.push_back(router.analyzer().margin_ps(p));
  }
  snap.semantic =
      MetricsRegistry::global().scope_json(MetricScope::kSemantic).dump();
  return snap;
}

// The shard-parallel area passes (DESIGN.md §5): on a design that splits
// into several shards, every re-route of an area pass runs on its shard's
// worker, yet the routed state, the deletion sequence, every phase's STA
// counters and every semantic counter (route.reroutes_skipped included:
// the memo epochs are per shard at any thread count) match the 1-thread
// run.
TEST(ParallelDeterminism, ShardParallelAreaPasses) {
  const CircuitSpec spec = testutil::shard_spec(331, 5);
  const FullSnapshot serial = route_fully(spec, 1);
  ASSERT_GT(serial.shards, 1);
  ASSERT_FALSE(serial.deletions.empty());
  for (const std::int32_t threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FullSnapshot parallel = route_fully(spec, threads);
    expect_outcomes_identical(serial.outcome, parallel.outcome);
    EXPECT_EQ(serial.alive_edges, parallel.alive_edges);
    EXPECT_EQ(serial.charts, parallel.charts);
    EXPECT_EQ(serial.margins, parallel.margins);  // bitwise: no tolerance
    EXPECT_EQ(serial.deletions, parallel.deletions);
    EXPECT_EQ(serial.semantic, parallel.semantic);
    const PhaseStats& area = parallel.outcome.phases.back();
    ASSERT_EQ(area.name, "improve_area");
    EXPECT_GT(area.reroutes, 0);
    EXPECT_GT(area.exec_regions, 0);  // the passes ran a parallel region
    EXPECT_GT(area.sta_updates, 0);   // ...whose workers updated timing
  }
}

TEST(ParallelDeterminism, PaperPresetC1P1) {
  const auto serial = route_design(make_dataset("C1P1"), RouterOptions{}, 1);
  const auto parallel = route_design(make_dataset("C1P1"), RouterOptions{}, 4);
  expect_bit_identical(serial, parallel);
}

}  // namespace
}  // namespace bgr
