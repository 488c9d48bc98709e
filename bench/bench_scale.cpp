// Scale bench over the block-structured presets (DESIGN.md §13): routes a
// 10k/100k/1M-cell preset at 1, 2 and 4 threads and reports the routing
// wall and each phase's wall per thread count. Gates:
//   - decomposition: the preset must split into more than one shard;
//   - identity: every thread count yields the same RouteOutcome (hard);
//   - throughput: routed nets per second of the 2-thread routing wall;
//   - speedup: 1-thread over 4-thread routing wall, measured, and gated
//     only on a host with at least 4 hardware threads (fewer cannot show
//     it).
// Results land in BENCH_scale.json (schema: tools/check_run_report.py).
//
//   bench_scale [preset] [nets-per-second-floor] [speedup-floor]
//
// defaults: preset 10k, floor 200 nets/s (conservative: a release build
// routes the 10k preset at a few thousand nets/s), speedup floor 2
// (a release build measures ~3x on 4 cores).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/route/router.hpp"
#include "bgr/route/shard.hpp"

namespace {

using namespace bgr;

struct ScaleRun {
  std::int32_t threads = 0;
  double route_s = 0.0;
  RouteOutcome outcome;
  std::int32_t cells = 0;  // after feed-cell insertion
  std::int32_t shards = 0;
  std::int64_t commits = 0;
};

ScaleRun route_once(const std::string& preset, std::int32_t threads) {
  Dataset design = make_dataset(preset);  // fresh: routing mutates it
  RouterOptions options;
  options.threads = threads;
  GlobalRouter router(design.netlist, std::move(design.placement),
                      design.tech, design.constraints, options);
  ScaleRun run;
  run.threads = threads;
  Stopwatch sw;
  run.outcome = router.run();
  run.route_s = sw.seconds();
  run.cells = design.netlist.cell_count();
  const ShardDecomposition& dec = router.shard_decomposition();
  run.shards = dec.shard_count();
  for (const std::int64_t c : dec.commits) run.commits += c;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string preset = argc > 1 ? argv[1] : "10k";
  const double floor_nets_per_s = argc > 2 ? std::atof(argv[2]) : 200.0;
  // Smallest 1-thread / 4-thread routing-wall ratio accepted on a host
  // with at least 4 hardware threads.
  const double speedup_floor = argc > 3 ? std::atof(argv[3]) : 2.0;
  bench::print_banner("scale: threads vs routing wall on the " + preset +
                      " preset");
  bench::print_substitution_note();

  const Dataset probe = make_dataset(preset);
  const std::int32_t nets = probe.netlist.net_count();
  const std::int32_t hardware = ExecContext::hardware_threads();
  std::printf("design %s: %d cells, %d nets, %zu constraints "
              "(hardware threads: %d)\n",
              probe.name.c_str(), probe.netlist.cell_count(), nets,
              probe.constraints.size(), hardware);

  std::vector<ScaleRun> runs;
  for (const std::int32_t threads : {1, 2, 4}) {
    // Each run's registry deltas alone; the report keeps the last run's,
    // which every thread count must reproduce.
    MetricsRegistry::global().reset();
    runs.push_back(route_once(preset, threads));
    const ScaleRun& r = runs.back();
    std::printf("threads %d: routed in %.3fs (", r.threads, r.route_s);
    for (const PhaseStats& ph : r.outcome.phases) {
      std::printf(" %s %.3fs", ph.name.c_str(), ph.seconds);
    }
    std::printf(" ): delay %.1f ps, length %.2f mm, violations %d\n",
                r.outcome.critical_delay_ps,
                r.outcome.total_length_um / 1000.0,
                r.outcome.violated_constraints);
  }
  const ScaleRun& base = runs.front();
  const ScaleRun& two = runs[1];
  const ScaleRun& four = runs.back();

  bool identical = true;
  for (const ScaleRun& r : runs) {
    if (!bench::outcomes_identical(base.outcome, r.outcome) ||
        r.cells != base.cells || r.shards != base.shards ||
        r.commits != base.commits) {
      std::printf("DETERMINISM VIOLATION at %d threads\n", r.threads);
      identical = false;
    }
  }
  const double nets_per_s =
      two.route_s > 0.0 ? static_cast<double>(nets) / two.route_s : 0.0;
  const double speedup4 =
      four.route_s > 0.0 ? base.route_s / four.route_s : 0.0;
  const bool speedup_gated = hardware >= 4;
  std::printf("deletion loop: %d shards, %lld commits\n", base.shards,
              static_cast<long long>(base.commits));
  std::printf("2 threads: %.0f nets/s; 4-thread speedup %.2fx (%s)\n",
              nets_per_s, speedup4,
              speedup_gated ? "gated" : "not gated: < 4 hardware threads");

  RunReport report("bench.scale");
  JsonValue& design_out = report.section("design");
  design_out.set("name", preset);
  design_out.set("cells", static_cast<std::int64_t>(base.cells));
  design_out.set("nets", static_cast<std::int64_t>(nets));
  design_out.set("constraints",
                 static_cast<std::int64_t>(probe.constraints.size()));
  JsonValue& route_out = report.section("route");
  route_out.set("critical_delay_ps", base.outcome.critical_delay_ps);
  route_out.set("total_length_um", base.outcome.total_length_um);
  route_out.set("violated_constraints",
                static_cast<std::int64_t>(base.outcome.violated_constraints));
  JsonValue& shards_out = report.section("shards");
  shards_out.set("count", static_cast<std::int64_t>(base.shards));
  shards_out.set("commits", base.commits);

  const bool sharded = base.shards > 1;
  const bool fast_enough = nets_per_s >= floor_nets_per_s;
  const bool speedup_ok = !speedup_gated || speedup4 >= speedup_floor;
  JsonValue& result = report.section("result");
  result.set("nets_per_second_floor", floor_nets_per_s);
  result.set("speedup_floor_4", speedup_floor);
  result.set("sharded", sharded);
  result.set("identical", identical);
  result.set("pass", sharded && identical && fast_enough && speedup_ok);
  // Wall-clock data lives under "run" so --compare-semantic strips it.
  JsonValue& run_out = report.section("run");
  run_out.set("seconds", two.route_s);
  run_out.set("nets_per_second", nets_per_s);
  run_out.set("hardware_threads", static_cast<std::int64_t>(hardware));
  run_out.set("speedup_4", speedup4);
  run_out.set("speedup_gated", speedup_gated);
  JsonValue per_threads = JsonValue::array();
  for (const ScaleRun& r : runs) {
    JsonValue entry;
    entry.set("threads", static_cast<std::int64_t>(r.threads));
    entry.set("route_seconds", r.route_s);
    JsonValue phases;
    for (const PhaseStats& ph : r.outcome.phases) {
      phases.set(ph.name, ph.seconds);
    }
    entry.set("phase_seconds", std::move(phases));
    per_threads.push_back(std::move(entry));
  }
  run_out.set("threads", std::move(per_threads));
  report.add_metrics(MetricsRegistry::global());
  bench::save_report(report, "BENCH_scale.json");

  if (!sharded) {
    std::printf("FAIL: the %s preset did not decompose into shards\n",
                preset.c_str());
    return 1;
  }
  if (!identical) {
    std::printf("FAIL: the RouteOutcome depends on the thread count\n");
    return 1;
  }
  if (!fast_enough) {
    std::printf("FAIL: %.0f nets/s under the %.0f nets/s floor\n", nets_per_s,
                floor_nets_per_s);
    return 1;
  }
  if (!speedup_ok) {
    std::printf("FAIL: 4-thread routing speedup %.2fx under the %.1fx "
                "floor\n",
                speedup4, speedup_floor);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
