// SearchCache cone repair vs reference Dijkstra inside the tentative-tree
// loop: routes the largest generated design once per backend and reports
// wall time, node pops and edge relaxations per search. Both runs must
// produce a bit-identical RouteOutcome (DESIGN.md §11's whole claim), and
// the cached backend must pop at least 2x fewer nodes than Dijkstra.
// Results land in BENCH_path_search.json for trend tracking.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/router.hpp"

namespace {

using namespace bgr;

struct SearchRun {
  PathSearchBackend backend = PathSearchBackend::kDijkstra;
  double route_s = 0.0;
  std::int64_t searches = 0;
  std::int64_t pops = 0;
  std::int64_t relaxations = 0;
  RouteOutcome outcome;
};

SearchRun route_once(const CircuitSpec& spec, PathSearchBackend backend) {
  Dataset design = generate_circuit(spec);  // fresh: routing mutates it
  // Reset the global registry so the metrics section emitted below
  // describes exactly one routed run, mirroring bgr_route --repeat.
  MetricsRegistry::global().reset();
  RouterOptions options;
  options.path_search = backend;
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  SearchRun run;
  run.backend = backend;
  Stopwatch sw;
  run.outcome = router.run();
  run.route_s = sw.seconds();
  for (const PhaseStats& ph : run.outcome.phases) {
    run.searches += ph.path_searches;
    run.pops += ph.path_pops;
    run.relaxations += ph.path_relaxations;
  }
  return run;
}

void print_run(const SearchRun& r) {
  std::printf("%-9s route %7.3fs  searches %8lld  pops %11lld "
              " relax %11lld  (%7.1f pops per search)\n",
              path_search_backend_name(r.backend), r.route_s,
              static_cast<long long>(r.searches),
              static_cast<long long>(r.pops),
              static_cast<long long>(r.relaxations),
              r.searches > 0 ? static_cast<double>(r.pops) /
                                   static_cast<double>(r.searches)
                             : 0.0);
}

void emit_json(const CircuitSpec& spec, const std::vector<SearchRun>& runs,
               double pop_ratio, bool identical) {
  RunReport report("bench.path_search");
  report.section("design").set("name", spec.name);
  JsonValue& modes = report.section("modes");
  for (const SearchRun& r : runs) {
    JsonValue entry;
    entry.set("backend", path_search_backend_name(r.backend));
    entry.set("route_seconds", r.route_s);
    entry.set("searches", r.searches);
    entry.set("pops", r.pops);
    entry.set("relaxations", r.relaxations);
    entry.set("critical_delay_ps", r.outcome.critical_delay_ps);
    entry.set("total_length_um", r.outcome.total_length_um);
    modes.push_back(std::move(entry));
  }
  const SearchRun& dijkstra = runs[0];
  const SearchRun& cached = runs[1];
  JsonValue& result = report.section("result");
  result.set("pop_ratio", pop_ratio);
  result.set("relaxation_ratio",
             cached.relaxations > 0
                 ? static_cast<double>(dijkstra.relaxations) /
                       static_cast<double>(cached.relaxations)
                 : 0.0);
  result.set("wall_speedup",
             cached.route_s > 0.0 ? dijkstra.route_s / cached.route_s : 0.0);
  result.set("outcomes_identical", identical);
  // The registry still holds the last (cached) run, so the path.*
  // counters describe it alone.
  report.add_metrics(MetricsRegistry::global());
  bench::save_report(report, "BENCH_path_search.json");
}

}  // namespace

int main() {
  bench::print_banner(
      "path search: SearchCache cone repair vs reference Dijkstra");
  bench::print_substitution_note();
  CircuitSpec spec = c3_spec();  // the largest generated preset
  {
    const Dataset d = generate_circuit(spec);
    std::printf("design %s: %d cells, %d nets, %zu constraints\n",
                d.name.c_str(), d.netlist.cell_count(), d.netlist.net_count(),
                d.constraints.size());
  }

  std::vector<SearchRun> runs;
  runs.push_back(route_once(spec, PathSearchBackend::kDijkstra));
  runs.push_back(route_once(spec, PathSearchBackend::kCached));
  const SearchRun& dijkstra = runs[0];
  const SearchRun& cached = runs[1];
  for (const SearchRun& r : runs) print_run(r);

  const bool identical =
      bench::outcomes_identical(dijkstra.outcome, cached.outcome);
  const double pop_ratio =
      cached.pops > 0 ? static_cast<double>(dijkstra.pops) /
                            static_cast<double>(cached.pops)
                      : 0.0;
  std::printf("\nnode pops: dijkstra %lld vs cached %lld (%.2fx fewer)\n",
              static_cast<long long>(dijkstra.pops),
              static_cast<long long>(cached.pops), pop_ratio);
  std::printf("wall speedup: %.2fx\n",
              cached.route_s > 0.0 ? dijkstra.route_s / cached.route_s : 0.0);
  std::printf(identical ? "outcome: bit-identical across backends\n"
                        : "outcome: MISMATCH between backends\n");
  emit_json(spec, runs, pop_ratio, identical);

  if (!identical) {
    std::printf("FAIL: outcomes differ across backends\n");
    return 1;
  }
  if (pop_ratio < 2.0) {
    std::printf("FAIL: expected >=2x fewer node pops with the cached "
                "backend\n");
    return 1;
  }
  return 0;
}
