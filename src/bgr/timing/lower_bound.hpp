#pragma once

#include "bgr/common/ids.hpp"
#include "bgr/common/tech.hpp"
#include "bgr/layout/placement.hpp"
#include "bgr/timing/delay_graph.hpp"

namespace bgr {

/// Half-perimeter wire-length bound of a net (paper §5, Table 3): the wire
/// length is assumed to be half the perimeter of the bounding rectangle of
/// the net's terminals, in micrometres.
[[nodiscard]] double net_half_perimeter_um(const Netlist& netlist,
                                           const Placement& placement,
                                           const TechParams& tech, NetId net);

/// Weight (um) the routing graph charges for one feedthrough crossing of a
/// cell row: the row height plus the expected in-channel vertical runs on
/// both sides of the crossing. This is exactly the feed-edge weight of
/// RoutingGraph, so `net_length_lower_bound_um`, which is built from it,
/// is a true lower bound on routing-graph tree lengths by construction.
[[nodiscard]] double row_crossing_cost_um(const TechParams& tech);

/// Feed-aware net-length lower bound (um): the horizontal extent of the
/// net's terminal columns plus one full `row_crossing_cost_um` charge per
/// cell row that every connecting tree must cross (each terminal can reach
/// the channel above or below its row; a pad only its edge channel).
/// Tighter than `net_half_perimeter_um` as a routing-graph length bound,
/// because the graph prices a row crossing at more than the row height.
[[nodiscard]] double net_length_lower_bound_um(const Netlist& netlist,
                                               const Placement& placement,
                                               const TechParams& tech,
                                               NetId net);

/// Loads every net's capacitance with its half-perimeter bound and returns
/// the resulting chip critical delay — the critical-path-delay lower bound
/// of Table 3. Net capacitances in `delay_graph` are left at the bound
/// values; callers wanting to preserve state must restore caps themselves.
[[nodiscard]] double lower_bound_delay_ps(DelayGraph& delay_graph,
                                          const Placement& placement,
                                          const TechParams& tech);

}  // namespace bgr
