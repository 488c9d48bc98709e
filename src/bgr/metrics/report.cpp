#include "bgr/metrics/report.hpp"

#include <algorithm>
#include <ostream>

#include "bgr/io/table.hpp"
#include "bgr/obs/metrics.hpp"

namespace bgr {

RouteStats collect_stats(const GlobalRouter& router,
                         const ChannelStage& channel) {
  const Netlist& nl = router.analyzer().delay_graph().netlist();
  RouteStats stats;

  for (const CellId c : nl.cells()) {
    ++stats.cells;
    if (nl.cell_type(c).is_feed()) ++stats.feed_cells;
  }
  std::int64_t fanout_sum = 0;
  std::vector<double> lengths;
  for (const NetId n : nl.nets()) {
    ++stats.nets;
    const auto fanout = static_cast<std::int32_t>(nl.net(n).sinks.size());
    stats.max_fanout = std::max(stats.max_fanout, fanout);
    fanout_sum += fanout;
    const double um = channel.net_detailed_length_um(n);
    lengths.push_back(um);
    stats.total_um += um;
    stats.max_um = std::max(stats.max_um, um);
  }
  for (const TerminalId t : nl.terminals()) {
    if (nl.terminal(t).kind != TerminalKind::kCellPin) ++stats.pads;
  }
  stats.mean_fanout =
      stats.nets > 0 ? static_cast<double>(fanout_sum) / stats.nets : 0.0;
  stats.mean_um = stats.nets > 0 ? stats.total_um / stats.nets : 0.0;

  stats.length_histogram.assign(10, 0);
  if (stats.max_um > 0.0) {
    for (const double um : lengths) {
      auto bucket = static_cast<std::size_t>(um / stats.max_um * 10.0);
      bucket = std::min<std::size_t>(bucket, 9);
      ++stats.length_histogram[bucket];
    }
  }

  double track_sum = 0.0;
  double util_sum = 0.0;
  std::int32_t channels = 0;
  for (std::int32_t c = 0; c < channel.channel_count(); ++c) {
    const ChannelPlan& plan = channel.plan(c);
    stats.max_tracks = std::max(stats.max_tracks, plan.tracks);
    track_sum += plan.tracks;
    if (plan.tracks > 0) {
      util_sum += static_cast<double>(plan.density) / plan.tracks;
      ++channels;
    }
  }
  stats.mean_tracks =
      channel.channel_count() > 0 ? track_sum / channel.channel_count() : 0.0;
  stats.track_utilisation = channels > 0 ? util_sum / channels : 0.0;

  stats.critical_delay_ps = router.analyzer().delay_graph().critical_delay_ps();
  stats.worst_margin_ps = router.analyzer().constraint_count() > 0
                              ? router.analyzer().worst_margin_ps()
                              : 0.0;
  stats.violated_constraints =
      static_cast<std::int32_t>(router.analyzer().violated().size());
  return stats;
}

void print_stats(std::ostream& os, const RouteStats& stats) {
  os << "design statistics:\n"
     << "  cells           " << stats.cells << " (" << stats.feed_cells
     << " feed)\n"
     << "  nets            " << stats.nets << " (mean fanout "
     << TextTable::fmt(stats.mean_fanout, 2) << ", max " << stats.max_fanout
     << ")\n"
     << "  pads            " << stats.pads << "\n"
     << "  wire length     total " << TextTable::fmt(stats.total_um / 1000.0, 2)
     << " mm, mean " << TextTable::fmt(stats.mean_um, 1) << " um, max "
     << TextTable::fmt(stats.max_um, 1) << " um\n";
  os << "  length deciles ";
  for (const auto count : stats.length_histogram) {
    os << " " << count;
  }
  os << "\n"
     << "  channel tracks  mean " << TextTable::fmt(stats.mean_tracks, 1)
     << ", max " << stats.max_tracks << ", utilisation "
     << TextTable::fmt(stats.track_utilisation * 100.0, 1) << "%\n"
     << "  timing          critical " << TextTable::fmt(stats.critical_delay_ps, 1)
     << " ps, worst margin " << TextTable::fmt(stats.worst_margin_ps, 1)
     << " ps, violations " << stats.violated_constraints << "\n";
}

RunReport make_run_report(const GlobalRouter& router,
                          const ChannelStage& channel,
                          const RouteOutcome& outcome,
                          const RunReportInfo& info) {
  const RouterOptions& opt = router.options();
  const RouteStats stats = collect_stats(router, channel);
  RunReport report("bgr_route");

  JsonValue& design = report.section("design");
  design.set("name", info.design);
  design.set("cells", static_cast<std::int64_t>(stats.cells));
  design.set("feed_cells", static_cast<std::int64_t>(stats.feed_cells));
  design.set("nets", static_cast<std::int64_t>(stats.nets));
  design.set("pads", static_cast<std::int64_t>(stats.pads));
  design.set("constraints",
             static_cast<std::int64_t>(router.analyzer().constraint_count()));

  JsonValue& options = report.section("options");
  options.set("constrained", info.constrained);
  options.set("delay_model",
              opt.delay_model == DelayModel::kElmoreRC ? "elmore_rc"
                                                       : "lumped_c");
  options.set("concurrent_initial", opt.concurrent_initial);
  options.set("incremental_sta", opt.incremental_sta);
  options.set("path_search", path_search_backend_name(opt.path_search));
  options.set("improvement_passes",
              static_cast<std::int64_t>(opt.improvement_passes));

  JsonValue& result = report.section("result");
  result.set("critical_delay_ps", outcome.critical_delay_ps);
  result.set("detailed_delay_ps", info.detailed_delay_ps);
  result.set("area_mm2", channel.chip_area_mm2());
  result.set("length_um", channel.total_detailed_length_um());
  result.set("violated_constraints",
             static_cast<std::int64_t>(outcome.violated_constraints));
  result.set("worst_margin_ps", outcome.worst_margin_ps);
  result.set("feed_cells_added",
             static_cast<std::int64_t>(outcome.feed_cells_added));
  result.set("widen_pitches", static_cast<std::int64_t>(outcome.widen_pitches));

  JsonValue& st = report.section("stats");
  st.set("max_fanout", static_cast<std::int64_t>(stats.max_fanout));
  st.set("mean_fanout", stats.mean_fanout);
  st.set("mean_um", stats.mean_um);
  st.set("max_um", stats.max_um);
  {
    JsonValue deciles;
    for (const auto count : stats.length_histogram) {
      deciles.push_back(JsonValue(static_cast<std::int64_t>(count)));
    }
    st.set("length_deciles", std::move(deciles));
  }
  st.set("max_tracks", static_cast<std::int64_t>(stats.max_tracks));
  st.set("mean_tracks", stats.mean_tracks);
  st.set("track_utilisation", stats.track_utilisation);

  JsonValue& phases = report.section("phases");
  for (const PhaseStats& ph : outcome.phases) {
    JsonValue entry;
    entry.set("name", ph.name);
    entry.set("deletions", ph.deletions);
    entry.set("reroutes", ph.reroutes);
    entry.set("critical_delay_ps", ph.critical_delay_ps);
    entry.set("worst_margin_ps", ph.worst_margin_ps);
    entry.set("sum_max_density", ph.sum_max_density);
    entry.set("sta_updates", ph.sta_updates);
    entry.set("sta_dirty_vertices", ph.sta_dirty_vertices);
    entry.set("sta_relaxations", ph.sta_relaxations);
    entry.set("path_searches", ph.path_searches);
    entry.set("path_pops", ph.path_pops);
    entry.set("path_relaxations", ph.path_relaxations);
    // Wall time and exec activity depend on the thread count and the
    // scheduler; keep them under "wall" so the determinism comparison can
    // strip them (see RunReport).
    JsonValue wall;
    wall.set("seconds", ph.seconds);
    wall.set("exec_regions", ph.exec_regions);
    wall.set("exec_chunks", ph.exec_chunks);
    entry.set("wall", std::move(wall));
    phases.push_back(std::move(entry));
  }

  // The thread count lives here, not under "options": two runs that differ
  // only in --threads must compare semantically equal.
  JsonValue& run = report.section("run");
  run.set("wall_seconds", info.wall_seconds);
  if (info.verify_seconds) run.set("verify_seconds", *info.verify_seconds);
  run.set("threads", static_cast<std::int64_t>(opt.threads));
  run.set("threads_resolved",
          static_cast<std::int64_t>(opt.threads == 0
                                        ? ExecContext::hardware_threads()
                                        : opt.threads));

  report.add_metrics(MetricsRegistry::global());
  return report;
}

}  // namespace bgr
