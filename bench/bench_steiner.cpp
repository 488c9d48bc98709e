// Cost-distance steiner trees vs the reference engines (DESIGN.md §16):
// routes C1/C2/C3 and the block-structured 10k preset once per backend
// and reports the delay/area front — total wirelength, worst margin,
// violation count, wall time and the steiner.* construction counters.
// Hard gates inside the binary:
//   - cached must stay bit-identical to the reference Dijkstra on every
//     design (the §11 contract does not bend while a third engine exists);
//   - the steiner run must margin-dominate the Dijkstra baseline per
//     constraint within the shared fuzz tolerance
//     (steiner_dominance_tol_ps), and must never route more wire than
//     5% over the baseline;
//   - the steiner.* semantic counters must be live on a steiner run.
// Results land in BENCH_steiner.json for the CI baseline diff.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/fuzz/oracles.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/path_search.hpp"
#include "bgr/route/router.hpp"

namespace {

using namespace bgr;

struct BackendRun {
  PathSearchBackend backend = PathSearchBackend::kDijkstra;
  double route_s = 0.0;
  RouteOutcome outcome;
  std::vector<double> margins;
  std::int64_t trees = 0;
  std::int64_t sink_paths = 0;
  std::int64_t cache_hits = 0;
};

std::int64_t counter_value(const char* name) {
  return MetricsRegistry::global()
      .counter(name, MetricScope::kSemantic)
      .value();
}

BackendRun route_once(const std::string& dataset, PathSearchBackend backend) {
  Dataset design = make_dataset(dataset);  // fresh: routing mutates it
  MetricsRegistry::global().reset();
  RouterOptions options;
  options.path_search = backend;
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  BackendRun run;
  run.backend = backend;
  Stopwatch sw;
  run.outcome = router.run();
  run.route_s = sw.seconds();
  for (const ConstraintId p : router.analyzer().constraints()) {
    run.margins.push_back(router.analyzer().margin_ps(p));
  }
  run.trees = counter_value("steiner.trees");
  run.sink_paths = counter_value("steiner.sink_paths");
  run.cache_hits = counter_value("steiner.cache_hits");
  return run;
}

void print_run(const std::string& dataset, const BackendRun& r) {
  std::printf("%-5s %-9s route %7.3fs  length %9.2f mm  worst margin "
              "%9.1f ps  violations %3d\n",
              dataset.c_str(), path_search_backend_name(r.backend), r.route_s,
              r.outcome.total_length_um / 1000.0, r.outcome.worst_margin_ps,
              r.outcome.violated_constraints);
}

}  // namespace

int main() {
  bench::print_banner(
      "steiner: cost-distance trees vs the reference engines");
  bench::print_substitution_note();

  const std::vector<std::string> datasets = {"C1P1", "C2P1", "C3P1", "10k"};
  const PathSearchBackend backends[] = {PathSearchBackend::kDijkstra,
                                        PathSearchBackend::kCached,
                                        PathSearchBackend::kSteiner};
  const FuzzOptions tol_options;

  RunReport report("bench.steiner");
  JsonValue& rows = report.section("designs");
  bool identical_ok = true;
  bool dominance_ok = true;
  bool counters_ok = true;
  double total_s = 0.0;
  for (const std::string& dataset : datasets) {
    std::vector<BackendRun> runs;
    for (const PathSearchBackend backend : backends) {
      runs.push_back(route_once(dataset, backend));
      total_s += runs.back().route_s;
      print_run(dataset, runs.back());
    }
    const BackendRun& dijkstra = runs[0];
    const BackendRun& cached = runs[1];
    const BackendRun& steiner = runs[2];

    if (!bench::outcomes_identical(dijkstra.outcome, cached.outcome)) {
      std::printf("%s: cached diverged from the reference dijkstra\n",
                  dataset.c_str());
      identical_ok = false;
    }
    const double tol = steiner_dominance_tol_ps(
        dijkstra.outcome.critical_delay_ps, tol_options);
    for (std::size_t i = 0; i < steiner.margins.size(); ++i) {
      if (steiner.margins[i] < dijkstra.margins[i] - tol) {
        std::printf("%s: constraint %zu margin %.3f ps < dijkstra %.3f - "
                    "tol %.3f\n",
                    dataset.c_str(), i, steiner.margins[i],
                    dijkstra.margins[i], tol);
        dominance_ok = false;
      }
    }
    if (steiner.outcome.total_length_um >
        1.05 * dijkstra.outcome.total_length_um) {
      std::printf("%s: steiner wirelength blew up (%.0f vs %.0f um)\n",
                  dataset.c_str(), steiner.outcome.total_length_um,
                  dijkstra.outcome.total_length_um);
      dominance_ok = false;
    }
    if (steiner.trees <= 0 || steiner.sink_paths < steiner.trees ||
        dijkstra.trees != 0) {
      std::printf("%s: steiner.* counters look dead or misattributed "
                  "(trees %lld, sink_paths %lld, dijkstra trees %lld)\n",
                  dataset.c_str(), static_cast<long long>(steiner.trees),
                  static_cast<long long>(steiner.sink_paths),
                  static_cast<long long>(dijkstra.trees));
      counters_ok = false;
    }

    JsonValue row;
    row.set("name", dataset);
    JsonValue modes;
    for (const BackendRun& r : runs) {
      JsonValue entry;
      entry.set("backend", path_search_backend_name(r.backend));
      entry.set("route_seconds", r.route_s);
      entry.set("critical_delay_ps", r.outcome.critical_delay_ps);
      entry.set("total_length_um", r.outcome.total_length_um);
      entry.set("worst_margin_ps", r.outcome.worst_margin_ps);
      entry.set("violated_constraints", r.outcome.violated_constraints);
      entry.set("steiner_trees", r.trees);
      entry.set("steiner_sink_paths", r.sink_paths);
      entry.set("steiner_cache_hits", r.cache_hits);
      modes.push_back(std::move(entry));
    }
    row.set("modes", std::move(modes));
    rows.push_back(std::move(row));
  }

  JsonValue& result = report.section("result");
  result.set("identical_ok", identical_ok);
  result.set("dominance_ok", dominance_ok);
  result.set("counters_ok", counters_ok);
  // Wall-clock data lives under "run" so --compare-semantic strips it.
  report.section("run").set("seconds", total_s);
  // The registry still holds the last (steiner on 10k) run, so the
  // steiner.* and path.* counters below describe it alone.
  report.add_metrics(MetricsRegistry::global());
  bench::save_report(report, "BENCH_steiner.json");

  if (!identical_ok) {
    std::printf("FAIL: cached is no longer bit-identical to dijkstra\n");
    return 1;
  }
  if (!dominance_ok) {
    std::printf("FAIL: steiner broke margin dominance vs dijkstra\n");
    return 1;
  }
  if (!counters_ok) {
    std::printf("FAIL: steiner.* semantic counters are not live\n");
    return 1;
  }
  std::printf("steiner front clean: margins dominate, cached identical\n");
  return 0;
}
