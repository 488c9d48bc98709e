// Minimum-capacity binary search (DESIGN.md §15): the smallest per-channel
// track capacity W for which a preset design still routes and verifies
// clean, found by bisecting [1, unconstrained densest channel] with fully
// deterministic feasibility probes. The bench runs the search twice and
// fails unless the transcripts are bit-identical (same probes, same
// verdicts, same minimum) — determinism is the property that makes the
// search a regression gate, not just a curiosity. Results land in
// BENCH_capacity.json (kind bench.capacity, the same document
// bgr_route --min-capacity-search emits) for trend tracking.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/verify/capacity_search.hpp"

namespace {

using namespace bgr;

CapacitySearchResult search_once(const CircuitSpec& spec) {
  Dataset design = generate_circuit(spec);
  MetricsRegistry::global().reset();
  RouterOptions options;
  return min_capacity_search(design.netlist, design.placement, design.tech,
                             design.constraints, options);
}

bool transcripts_identical(const CapacitySearchResult& a,
                           const CapacitySearchResult& b) {
  if (a.min_tracks != b.min_tracks) return false;
  if (a.unconstrained_tracks != b.unconstrained_tracks) return false;
  if (a.probes.size() != b.probes.size()) return false;
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    const CapacityProbe& pa = a.probes[i];
    const CapacityProbe& pb = b.probes[i];
    if (pa.tracks != pb.tracks || pa.feasible != pb.feasible ||
        pa.max_tracks != pb.max_tracks ||
        pa.reroute_passes != pb.reroute_passes ||
        pa.verify_errors != pb.verify_errors) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_banner("minimum channel capacity: deterministic binary search");
  bench::print_substitution_note();
  const CircuitSpec spec = c2_spec();  // mid-size: ~10 probes, seconds not minutes
  {
    const Dataset d = generate_circuit(spec);
    std::printf("design %s: %d cells, %d nets, %zu constraints\n",
                d.name.c_str(), d.netlist.cell_count(), d.netlist.net_count(),
                d.constraints.size());
  }

  Stopwatch sw;
  const CapacitySearchResult result = search_once(spec);
  const double wall_s = sw.seconds();
  const CapacitySearchResult repeat = search_once(spec);

  std::printf("unconstrained densest channel: %d tracks\n",
              result.unconstrained_tracks);
  std::printf("minimum feasible capacity:     %d tracks (%.3fs, %zu probes)\n",
              result.min_tracks, wall_s, result.probes.size());
  for (const CapacityProbe& probe : result.probes) {
    std::printf("  probe W=%-4d %s  densest %-4d passes %d  verify errors %d\n",
                probe.tracks, probe.feasible ? "feasible  " : "infeasible",
                probe.max_tracks, probe.reroute_passes, probe.verify_errors);
  }

  const bool identical = transcripts_identical(result, repeat);
  std::printf(identical
                  ? "repeat search: bit-identical transcript\n"
                  : "repeat search: TRANSCRIPT MISMATCH\n");

  RunReport report =
      make_capacity_report(spec.name, /*constrained=*/true, result, wall_s);
  bench::save_report(report, "BENCH_capacity.json");

  if (!identical) {
    std::printf("FAIL: capacity search is not deterministic across repeats\n");
    return 1;
  }
  if (result.min_tracks < 1 ||
      result.min_tracks > result.unconstrained_tracks) {
    std::printf("FAIL: minimum outside [1, unconstrained]\n");
    return 1;
  }
  return 0;
}
