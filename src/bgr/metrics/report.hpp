#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "bgr/channel/channel_router.hpp"
#include "bgr/obs/run_report.hpp"
#include "bgr/route/router.hpp"

namespace bgr {

/// Aggregate statistics of a routed design, for reports and regression
/// tracking.
struct RouteStats {
  // Netlist shape.
  std::int32_t cells = 0;
  std::int32_t feed_cells = 0;
  std::int32_t nets = 0;
  std::int32_t pads = 0;
  std::int32_t max_fanout = 0;
  double mean_fanout = 0.0;
  // Wire length distribution (detailed lengths, um).
  double total_um = 0.0;
  double mean_um = 0.0;
  double max_um = 0.0;
  /// Histogram over length deciles of the longest net.
  std::vector<std::int32_t> length_histogram;
  // Channel utilisation.
  std::int32_t max_tracks = 0;
  double mean_tracks = 0.0;
  double track_utilisation = 0.0;  // mean density / tracks, over channels
  // Timing.
  double critical_delay_ps = 0.0;
  double worst_margin_ps = 0.0;
  std::int32_t violated_constraints = 0;
};

[[nodiscard]] RouteStats collect_stats(const GlobalRouter& router,
                                       const ChannelStage& channel);

/// Pretty-prints the statistics block.
void print_stats(std::ostream& os, const RouteStats& stats);

/// Run-scoped inputs to make_run_report() that only the caller knows:
/// identity of the design, the end-to-end wall time, the channel-stage
/// (detailed) critical delay, and the signoff wall time when it ran.
struct RunReportInfo {
  std::string design;
  bool constrained = true;
  double detailed_delay_ps = 0.0;
  double wall_seconds = 0.0;
  std::optional<double> verify_seconds;  // "run.verify_seconds" when set
};

/// Builds the `--metrics-out` document: design/options/result/stats are
/// deterministic sections; phase entries keep their wall time and exec
/// activity under a "wall" sub-object; the "run" section and
/// "metrics.nondeterministic" hold everything scheduling-dependent (see
/// RunReport for the layout contract that check_run_report.py enforces).
[[nodiscard]] RunReport make_run_report(const GlobalRouter& router,
                                        const ChannelStage& channel,
                                        const RouteOutcome& outcome,
                                        const RunReportInfo& info);

}  // namespace bgr
