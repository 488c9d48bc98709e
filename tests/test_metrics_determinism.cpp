// Determinism contract of the semantic metric namespace: every counter
// and histogram registered kSemantic must be bit-identical across thread
// counts. The test routes the same generated design at 1, 2 and 8 threads
// (registry reset in between) and compares the serialized semantic
// snapshots byte for byte — any schedule-dependent increment that sneaks
// into the semantic scope fails here before it reaches CI's CLI check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgr/channel/channel_router.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/router.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

std::string route_and_snapshot_semantic(std::uint64_t seed,
                                        std::int32_t threads) {
  MetricsRegistry::global().reset();
  Dataset ds = generate_circuit(testutil::small_spec(seed));
  RouterOptions options;
  options.threads = threads;
  GlobalRouter router(ds.netlist, std::move(ds.placement), ds.tech,
                      ds.constraints, options);
  (void)router.run();
  ChannelStage channel(router);
  channel.run();
  return MetricsRegistry::global()
      .scope_json(MetricScope::kSemantic)
      .dump();
}

TEST(MetricsDeterminism, SemanticCountersIdenticalAcrossThreadCounts) {
  const std::string serial = route_and_snapshot_semantic(501, 1);
  for (const std::int32_t threads : {2, 8}) {
    const std::string parallel = route_and_snapshot_semantic(501, threads);
    EXPECT_EQ(serial, parallel) << "semantic metrics diverged at "
                                << threads << " threads";
  }
}

TEST(MetricsDeterminism, SemanticSnapshotIsNonTrivial) {
  (void)route_and_snapshot_semantic(502, 2);
  MetricsRegistry& registry = MetricsRegistry::global();
  // The snapshot only proves determinism if routing actually exercised
  // the instrumented paths.
  for (const char* name :
       {"route.deleted_edges", "route.score_cache_miss",
        "route.key_delay_evals", "route.graphs_built", "path.searches",
        "path.relaxations", "sta.full_sweeps", "channel.segments"}) {
    EXPECT_GT(registry.counter(name, MetricScope::kSemantic).value(), 0)
        << name;
  }
  EXPECT_GT(
      registry.histogram("route.graph_edges", MetricScope::kSemantic).count(),
      0);
  EXPECT_GT(
      registry.histogram("channel.tracks", MetricScope::kSemantic).count(), 0);
}

TEST(MetricsDeterminism, IncrementalStaTogglePreservesSemanticScope) {
  // Incremental vs full STA changes *which* sta.* counters move, so those
  // are excluded; everything routing-side must stay identical because the
  // routed result is bit-identical across the toggle.
  auto route = [](bool incremental) {
    MetricsRegistry::global().reset();
    Dataset ds = generate_circuit(testutil::small_spec(503));
    RouterOptions options;
    options.incremental_sta = incremental;
    GlobalRouter router(ds.netlist, std::move(ds.placement), ds.tech,
                        ds.constraints, options);
    (void)router.run();
    MetricsRegistry& registry = MetricsRegistry::global();
    std::vector<std::int64_t> out;
    for (const char* name :
         {"route.deleted_edges", "route.reroutes", "route.graphs_built",
          "layout.feed_cells_added"}) {
      out.push_back(registry.counter(name, MetricScope::kSemantic).value());
    }
    return out;
  };
  EXPECT_EQ(route(true), route(false));
}

}  // namespace
}  // namespace bgr
