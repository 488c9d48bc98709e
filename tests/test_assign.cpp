#include "bgr/route/assign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include "bgr/common/rng.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/timing/analyzer.hpp"
#include "bgr/timing/delay_graph.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

using testutil::ChainCircuit;

IdVector<NetId, double> flat_order(const Netlist& nl) {
  return IdVector<NetId, double>(static_cast<std::size_t>(nl.net_count()), 0.0);
}

TEST(Assign, ExternalPinsLandInWindowsUniquely) {
  ChainCircuit c;
  Placement pl = c.make_placement();
  assign_external_pins(c.nl, pl);
  std::set<std::pair<bool, std::int32_t>> used;
  for (const auto& [pad, site] : pl.pad_sites()) {
    (void)pad;
    ASSERT_TRUE(site.assigned());
    EXPECT_TRUE(site.window.contains(site.assigned_x));
    EXPECT_TRUE(used.emplace(site.top, site.assigned_x).second)
        << "pad column reused";
  }
}

TEST(Assign, FeedthroughColumnsAreFreeAndUnique) {
  ChainCircuit c;
  Placement pl = c.make_placement();
  assign_external_pins(c.nl, pl);
  const auto outcome =
      assign_feedthroughs(c.nl, pl, flat_order(c.nl), /*respect_flags=*/false);
  EXPECT_TRUE(outcome.complete());
  std::set<std::pair<std::int32_t, std::int32_t>> used;  // (row, col)
  for (const NetId n : c.nl.nets()) {
    const std::int32_t w = net_group_width(c.nl, n);
    for (const auto& [row, col] : outcome.assignment.rows(n)) {
      for (std::int32_t k = 0; k < w; ++k) {
        EXPECT_FALSE(pl.column_blocked(RowId{row}, col + k));
        EXPECT_TRUE(used.emplace(row, col + k).second)
            << "feedthrough column reused at row " << row << " col "
            << col + k;
      }
    }
  }
}

TEST(Assign, RequiredRowsAlwaysCoveredWhenComplete) {
  ChainCircuit c;
  Placement pl = c.make_placement();
  assign_external_pins(c.nl, pl);
  const auto outcome =
      assign_feedthroughs(c.nl, pl, flat_order(c.nl), false);
  ASSERT_TRUE(outcome.complete());
  for (const NetId n : c.nl.nets()) {
    if (net_group_width(c.nl, n) == 0) continue;
    const NetSpan span = net_span(c.nl, pl, n);
    for (std::int32_t r = span.row_lo(); r <= span.row_hi(); ++r) {
      if (span.row_required(r)) {
        EXPECT_GE(outcome.assignment.column(n, r), 0)
            << "net " << c.nl.net(n).name << " missing required row " << r;
      }
    }
  }
}

TEST(Assign, FlagsRestrictWidthClasses) {
  Netlist nl{Library::make_ecl_default()};
  // Two cells on separate rows joined by a 2-pitch net: crossing required.
  const CellTypeId buf = nl.library().find("BUF1");
  const CellId a = nl.add_cell("a", buf);
  const CellId b = nl.add_cell("b", buf);
  const NetId n = nl.add_net("n", 2);
  (void)nl.connect(n, a, nl.cell_type(a).find_pin("O"));
  (void)nl.connect(n, b, nl.cell_type(b).find_pin("I0"));
  Placement pl(3, 8);
  pl.place(nl, a, RowId{0}, 0);
  pl.place(nl, b, RowId{2}, 0);
  // Flag column 6 of row 1 as width-1: the 2-pitch group must avoid it.
  pl.set_column_flag(RowId{1}, 6, 1);
  const auto outcome = assign_feedthroughs(
      nl, pl, IdVector<NetId, double>(1, 0.0), /*respect_flags=*/true);
  ASSERT_TRUE(outcome.complete());
  const std::int32_t col = outcome.assignment.column(n, 1);
  ASSERT_GE(col, 0);
  EXPECT_TRUE(col + 1 < 6 || col > 6);
}

TEST(Assign, DifferentialPairGetsTwoPitchGroup) {
  Netlist nl{Library::make_ecl_default()};
  const CellTypeId ddrv = nl.library().find("DDRV");
  const CellTypeId drcv = nl.library().find("DRCV");
  const CellId drv = nl.add_cell("drv", ddrv);
  const CellId rcv = nl.add_cell("rcv", drcv);
  const NetId nt = nl.add_net("nt");
  const NetId nc = nl.add_net("nc");
  auto pin = [&](CellId c, const char* p) { return nl.cell_type(c).find_pin(p); };
  (void)nl.connect(nt, drv, pin(drv, "OT"));
  (void)nl.connect(nc, drv, pin(drv, "OC"));
  (void)nl.connect(nt, rcv, pin(rcv, "IT"));
  (void)nl.connect(nc, rcv, pin(rcv, "IC"));
  nl.make_differential(nt, nc);
  EXPECT_EQ(net_group_width(nl, nt), 2);
  EXPECT_EQ(net_group_width(nl, nc), 0);
  Placement pl(3, 12);
  pl.place(nl, drv, RowId{0}, 0);
  pl.place(nl, rcv, RowId{2}, 0);
  const auto outcome = assign_feedthroughs(
      nl, pl, IdVector<NetId, double>(2, 0.0), false);
  ASSERT_TRUE(outcome.complete());
  // Primary holds the group; the shadow rides one column to the right.
  EXPECT_GE(outcome.assignment.column(nt, 1), 0);
  EXPECT_TRUE(outcome.assignment.rows(nc).empty());
}

TEST(Assign, PipelineInsertsFeedsWhenStarved) {
  // A fully blocked row between two connected cells forces feed insertion.
  Netlist nl{Library::make_ecl_default()};
  const CellTypeId buf = nl.library().find("BUF1");
  const CellTypeId nor3 = nl.library().find("NOR3");
  const CellId a = nl.add_cell("a", buf);
  const CellId b = nl.add_cell("b", buf);
  const NetId n = nl.add_net("n");
  (void)nl.connect(n, a, nl.cell_type(a).find_pin("O"));
  (void)nl.connect(n, b, nl.cell_type(b).find_pin("I0"));
  Placement pl(3, 8);
  pl.place(nl, a, RowId{0}, 0);
  pl.place(nl, b, RowId{2}, 0);
  // Block row 1 completely with NOR3 cells (width 4).
  pl.place(nl, nl.add_cell("x0", nor3), RowId{1}, 0);
  pl.place(nl, nl.add_cell("x1", nor3), RowId{1}, 4);
  const auto slacks = IdVector<NetId, double>(1, 0.0);
  const auto result = run_assignment_pipeline(nl, pl, slacks);
  EXPECT_GT(result.feed_cells_added, 0);
  EXPECT_GT(result.widen_pitches, 0);
  EXPECT_GE(result.assignment.column(n, 1), 0);
  pl.validate(nl);
}

TEST(Assign, OrderPrioritisesCriticalNets) {
  // Two nets compete for a single free column in the shared row; the one
  // with the smaller order value must win it.
  Netlist nl{Library::make_ecl_default()};
  const CellTypeId buf = nl.library().find("BUF1");
  const CellId a0 = nl.add_cell("a0", buf);
  const CellId b0 = nl.add_cell("b0", buf);
  const CellId a1 = nl.add_cell("a1", buf);
  const CellId b1 = nl.add_cell("b1", buf);
  const NetId n0 = nl.add_net("n0");
  const NetId n1 = nl.add_net("n1");
  auto pin = [&](CellId c, const char* p) { return nl.cell_type(c).find_pin(p); };
  (void)nl.connect(n0, a0, pin(a0, "O"));
  (void)nl.connect(n0, b0, pin(b0, "I0"));
  (void)nl.connect(n1, a1, pin(a1, "O"));
  (void)nl.connect(n1, b1, pin(b1, "I0"));
  Placement pl(3, 9);
  pl.place(nl, a0, RowId{0}, 0);
  pl.place(nl, a1, RowId{0}, 4);
  pl.place(nl, b0, RowId{2}, 0);
  pl.place(nl, b1, RowId{2}, 4);
  // Row 1: one free column at 8 (two NOR3-wide blockers at 0..7).
  const CellTypeId nor3 = nl.library().find("NOR3");
  pl.place(nl, nl.add_cell("x0", nor3), RowId{1}, 0);
  pl.place(nl, nl.add_cell("x1", nor3), RowId{1}, 4);
  IdVector<NetId, double> order(2, 0.0);
  order[n0] = 5.0;  // less critical
  order[n1] = 1.0;  // more critical → assigned first
  const auto outcome = assign_feedthroughs(nl, pl, order, false);
  EXPECT_EQ(outcome.assignment.column(n1, 1), 8);
  EXPECT_LT(outcome.assignment.column(n0, 1), 0);
  EXPECT_FALSE(outcome.complete());
}


// ---------------------------------------------------------------------------
// Oracle: the outward column scan the per-row union-finds replaced. Each
// query walked d = 0, 1, ... from the net's centre, scoring the groups at
// centre − d and centre + d (every column probed per group), and stopped at
// the first fully flagged hit, at the first hit of any kind when flags were
// not respected, or once d passed the first hit's distance by 64.

std::int32_t reference_center_column(const Netlist& netlist,
                                     const Placement& placement, NetId net) {
  std::int64_t sum = 0;
  std::int64_t count = 0;
  for (const TerminalId term : netlist.net_terminals(net)) {
    sum += terminal_geom(netlist, placement, term).column;
    ++count;
  }
  return static_cast<std::int32_t>(sum / std::max<std::int64_t>(count, 1));
}

/// `deferred` (optional) counts the queries answered by a flagged group
/// farther out than the nearest usable one — the bounded flag search.
AssignmentOutcome reference_assign_round(const Netlist& netlist,
                                         const Placement& placement,
                                         const std::vector<NetId>& nets,
                                         bool respect_flags,
                                         std::int32_t* deferred = nullptr) {
  AssignmentOutcome outcome{FeedthroughAssignment(netlist.net_count()),
                            FeedDemand(placement.row_count()), 0};
  const auto width = static_cast<std::size_t>(placement.width());
  std::vector<std::vector<bool>> taken(
      static_cast<std::size_t>(placement.row_count()),
      std::vector<bool>(width, false));
  auto group_score = [&](RowId row, std::int32_t x, std::int32_t w) -> int {
    if (x < 0 || x + w > placement.width()) return -1;
    bool all_flagged = true;
    for (std::int32_t c = x; c < x + w; ++c) {
      if (placement.column_blocked(row, c)) return -1;
      if (taken[static_cast<std::size_t>(row.value())]
               [static_cast<std::size_t>(c)]) {
        return -1;
      }
      const std::int32_t flag = placement.column_flag(row, c);
      if (respect_flags && flag != 0 && flag != w) return -1;
      if (flag != w) all_flagged = false;
    }
    return all_flagged ? 0 : 1;
  };
  auto find_group = [&](RowId row, std::int32_t center, std::int32_t w,
                        std::int32_t prefer) -> std::int32_t {
    if (prefer >= 0 && group_score(row, prefer, w) >= 0) return prefer;
    std::int32_t best = -1;
    int best_score = std::numeric_limits<int>::max();
    std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
    std::int64_t first_dist = -1;
    for (std::int32_t d = 0; d < placement.width(); ++d) {
      for (const std::int32_t x : {center - d, center + d}) {
        const int score = group_score(row, x, w);
        if (score < 0) continue;
        if (first_dist < 0) first_dist = d;
        if (score < best_score || (score == best_score && d < best_dist)) {
          best_score = score;
          best_dist = d;
          best = x;
        }
      }
      if (best_score == 0) break;
      if (best >= 0 && !respect_flags) break;
      if (best >= 0 && d > best_dist + 64) break;
    }
    if (deferred != nullptr && best >= 0 && best_dist > first_dist) {
      ++*deferred;
    }
    return best;
  };
  for (const bool required_sweep : {true, false}) {
    for (const NetId net : nets) {
      const std::int32_t w = net_group_width(netlist, net);
      if (w == 0) continue;
      const NetSpan span = net_span(netlist, placement, net);
      if (span.row_hi() < span.row_lo()) continue;
      const std::int32_t center =
          reference_center_column(netlist, placement, net);
      std::int32_t prev = -1;
      for (std::int32_t r = span.row_lo(); r <= span.row_hi(); ++r) {
        if (span.row_required(r) != required_sweep) continue;
        const std::int32_t x = find_group(RowId{r}, center, w, prev);
        if (x < 0) {
          if (required_sweep) {
            outcome.demand.add_failure(RowId{r}, w);
          } else {
            ++outcome.optional_failures;
          }
          continue;
        }
        for (std::int32_t c = x; c < x + w; ++c) {
          taken[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
              true;
        }
        outcome.assignment.set(net, r, x);
        prev = x;
      }
    }
  }
  return outcome;
}

/// The §3.1 + §4.3 pipeline over the oracle rounds (same flagging and
/// feed-cell insertion as run_assignment_pipeline).
AssignmentPipelineResult reference_pipeline(
    Netlist& netlist, Placement& placement,
    const IdVector<NetId, double>& order) {
  assign_external_pins(netlist, placement);
  AssignmentPipelineResult result{FeedthroughAssignment(netlist.net_count()),
                                  0, 0, 0};
  const std::vector<NetId> nets = feedthrough_net_order(netlist, order);
  constexpr std::int32_t kMaxRounds = 10;
  for (std::int32_t round = 0; round <= kMaxRounds; ++round) {
    ++result.rounds;
    AssignmentOutcome outcome =
        reference_assign_round(netlist, placement, nets, round > 0);
    if (outcome.complete() || round == kMaxRounds) {
      result.assignment = std::move(outcome.assignment);
      return result;
    }
    placement.clear_column_flags();
    for (const NetId net : netlist.nets()) {
      const std::int32_t w = net_group_width(netlist, net);
      if (w < 2) continue;
      for (const auto& [row, col] : outcome.assignment.rows(net)) {
        for (std::int32_t c = col; c < col + w; ++c) {
          placement.set_column_flag(RowId{row}, c, w);
        }
      }
    }
    FeedInsertionResult inserted =
        insert_feed_cells(netlist, placement, outcome.demand);
    result.feed_cells_added += inserted.feed_cells_added;
    result.widen_pitches += inserted.widen_pitches;
    placement = std::move(inserted.placement);
  }
  return result;
}

void expect_same_assignment(const Netlist& nl, const FeedthroughAssignment& a,
                            const FeedthroughAssignment& b,
                            const std::string& where) {
  for (const NetId n : nl.nets()) {
    ASSERT_EQ(a.rows(n), b.rows(n))
        << where << ": net " << nl.net(n).name << " assigned differently";
  }
}

void expect_same_outcome(const Netlist& nl, const AssignmentOutcome& got,
                         const AssignmentOutcome& want,
                         const std::string& where) {
  expect_same_assignment(nl, got.assignment, want.assignment, where);
  ASSERT_EQ(got.demand.rows(), want.demand.rows()) << where;
  for (std::int32_t r = 0; r < got.demand.rows(); ++r) {
    EXPECT_EQ(got.demand.row(RowId{r}), want.demand.row(RowId{r}))
        << where << ": feed demand of row " << r;
  }
  EXPECT_EQ(got.optional_failures, want.optional_failures) << where;
}

/// Random slack-like order with many ties, so the name/width tie-breaks
/// also decide part of the sweep.
IdVector<NetId, double> random_order(const Netlist& nl, Rng& rng) {
  IdVector<NetId, double> order(static_cast<std::size_t>(nl.net_count()), 0.0);
  for (const NetId n : nl.nets()) {
    order[n] = static_cast<double>(rng.uniform_i32(0, 6)) * 25.0;
  }
  return order;
}

/// Scatters width flags over the free columns: single flag-1 columns and
/// aligned runs of flag w (2 or 3), some broken by a foreign flag.
void scatter_flags(Placement& pl, Rng& rng, double density) {
  for (std::int32_t r = 0; r < pl.row_count(); ++r) {
    const RowId row{r};
    for (std::int32_t x = 0; x < pl.width(); ++x) {
      if (pl.column_blocked(row, x) || !rng.bernoulli(density)) continue;
      const std::int32_t w = rng.uniform_i32(1, 3);
      for (std::int32_t c = x; c < std::min(x + w, pl.width()); ++c) {
        if (pl.column_blocked(row, c)) break;
        pl.set_column_flag(row, c, rng.bernoulli(0.85) ? w : 1);
      }
      x += w;
    }
  }
}

TEST(AssignOracle, RoundsMatchOutwardScanOnRandomPlacements) {
  std::int32_t failures_seen = 0;
  std::int32_t flagged_picks = 0;
  std::int32_t deferred = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 7919);
    CircuitSpec spec = testutil::small_spec(seed);
    spec.rows = 4 + static_cast<std::int32_t>(seed % 4);
    spec.target_cells = 90 + static_cast<std::int32_t>(seed % 5) * 40;
    spec.clock_pitch = 2 + static_cast<std::int32_t>(seed % 2);
    spec.diff_pairs = static_cast<std::int32_t>(seed % 4);
    // Scarce feedthroughs on odd seeds: blocked stretches and failures.
    spec.gap_fraction = seed % 2 == 0 ? 0.06 : 0.0;
    spec.feed_every = seed % 2 == 0 ? 7 : 40;
    const Dataset ds = generate_circuit(spec);
    Placement pl = ds.placement;
    assign_external_pins(ds.netlist, pl);
    scatter_flags(pl, rng, 0.02 + 0.03 * static_cast<double>(seed % 3));
    const auto order = random_order(ds.netlist, rng);
    const std::vector<NetId> nets = feedthrough_net_order(ds.netlist, order);
    for (const bool respect : {false, true}) {
      const std::string where =
          "seed " + std::to_string(seed) + (respect ? " respect" : " ignore");
      const AssignmentOutcome got =
          assign_feedthroughs(ds.netlist, pl, order, respect);
      const AssignmentOutcome want =
          reference_assign_round(ds.netlist, pl, nets, respect, &deferred);
      expect_same_outcome(ds.netlist, got, want, where);
      failures_seen += want.demand.widen_pitches() + want.optional_failures;
      for (const NetId n : ds.netlist.nets()) {
        const std::int32_t w = net_group_width(ds.netlist, n);
        for (const auto& [row, col] : want.assignment.rows(n)) {
          // Wide flagged groups exercise the multi-column group search.
          if (w >= 2 && pl.column_flag(RowId{row}, col) == w) ++flagged_picks;
        }
      }
    }
  }
  // The sweep must reach the paths it is meant to check.
  EXPECT_GT(failures_seen, 0);
  EXPECT_GT(flagged_picks, 0);
  EXPECT_GT(deferred, 0);
  std::printf("oracle sweep: %d failures, %d flagged picks, %d deferred\n",
              failures_seen, flagged_picks, deferred);
}

TEST(AssignOracle, PipelineMatchesOutwardScanOnRandomDesigns) {
  std::int32_t multi_round = 0;
  for (std::uint64_t seed = 31; seed <= 42; ++seed) {
    Rng rng(seed);
    CircuitSpec spec = testutil::small_spec(seed);
    spec.rows = 6;
    spec.target_cells = 160;
    spec.clock_pitch = 2 + static_cast<std::int32_t>(seed % 2);
    spec.diff_pairs = 3;
    spec.gap_fraction = 0.0;
    spec.feed_every = seed % 3 == 0 ? 60 : 12;
    const Dataset ds = generate_circuit(spec);
    const auto order = random_order(ds.netlist, rng);
    Netlist nl_got = ds.netlist;
    Placement pl_got = ds.placement;
    const AssignmentPipelineResult got =
        run_assignment_pipeline(nl_got, pl_got, order);
    Netlist nl_want = ds.netlist;
    Placement pl_want = ds.placement;
    const AssignmentPipelineResult want =
        reference_pipeline(nl_want, pl_want, order);
    const std::string where = "seed " + std::to_string(seed);
    expect_same_assignment(nl_got, got.assignment, want.assignment, where);
    EXPECT_EQ(got.rounds, want.rounds) << where;
    EXPECT_EQ(got.feed_cells_added, want.feed_cells_added) << where;
    EXPECT_EQ(got.widen_pitches, want.widen_pitches) << where;
    EXPECT_EQ(nl_got.cell_count(), nl_want.cell_count()) << where;
    EXPECT_EQ(pl_got.width(), pl_want.width()) << where;
    if (want.rounds > 1) ++multi_round;
  }
  EXPECT_GT(multi_round, 0) << "no design needed feed-cell insertion";
}

TEST(AssignOracle, PipelineMatchesOutwardScanOnPresets) {
  std::vector<std::string> names = dataset_names();
  names.push_back("10k");
  for (const std::string& name : names) {
    const Dataset ds = make_dataset(name);
    Netlist nl = ds.netlist;
    DelayGraph dg(nl);
    TimingAnalyzer an(dg, ds.constraints);
    const auto slacks = an.net_slacks();
    Netlist nl_got = ds.netlist;
    Placement pl_got = ds.placement;
    const AssignmentPipelineResult got =
        run_assignment_pipeline(nl_got, pl_got, slacks);
    Netlist nl_want = ds.netlist;
    Placement pl_want = ds.placement;
    const AssignmentPipelineResult want =
        reference_pipeline(nl_want, pl_want, slacks);
    expect_same_assignment(nl_got, got.assignment, want.assignment, name);
    EXPECT_EQ(got.rounds, want.rounds) << name;
    EXPECT_EQ(got.feed_cells_added, want.feed_cells_added) << name;
    EXPECT_EQ(got.widen_pitches, want.widen_pitches) << name;
  }
}

}  // namespace
}  // namespace bgr
