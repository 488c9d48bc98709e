#include "bgr/timing/analyzer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace bgr {
namespace {

using testutil::ChainCircuit;

PathConstraint constraint_a_to_d(const ChainCircuit& c, double limit) {
  PathConstraint pc;
  pc.name = "A2D";
  pc.sources = {c.pad_a};
  pc.sinks = {c.d_term};
  pc.limit_ps = limit;
  return pc;
}

TEST(Penalty, MatchesEquation4) {
  // x >= 0: 1 - x/δ. x < 0: exp(-x/δ).
  EXPECT_DOUBLE_EQ(penalty(0.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(penalty(50.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(penalty(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(penalty(-100.0, 100.0), std::exp(1.0));
  // Monotone decreasing in margin across the boundary.
  EXPECT_GT(penalty(-1.0, 100.0), penalty(0.0, 100.0));
  EXPECT_GT(penalty(0.0, 100.0), penalty(1.0, 100.0));
}

TEST(Analyzer, MarginMatchesHandComputation) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 200.0)});
  EXPECT_NEAR(an.margin_ps(ConstraintId{0}),
              200.0 - ChainCircuit::kPathADelayPs, 1e-9);
  EXPECT_NEAR(an.critical_delay_ps(ConstraintId{0}),
              ChainCircuit::kPathADelayPs, 1e-9);
}

TEST(Analyzer, ConstraintMembership) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 200.0)});
  const ConstraintId p{0};
  // Nets on A→D paths: a, n0, n1 (b joins at g1 but cannot reach from A...
  // b's arcs do not lie between A and D).
  const auto& nets = an.nets_of_constraint(p);
  auto has = [&](NetId n) {
    return std::find(nets.begin(), nets.end(), n) != nets.end();
  };
  EXPECT_TRUE(has(c.a));
  EXPECT_TRUE(has(c.n0));
  EXPECT_TRUE(has(c.n1));
  EXPECT_FALSE(has(c.b));
  EXPECT_FALSE(has(c.q));
  EXPECT_FALSE(has(c.ck));
  EXPECT_EQ(an.constraints_of_net(c.n0), (std::vector<ConstraintId>{p}));
  EXPECT_TRUE(an.constraints_of_net(c.q).empty());
}

TEST(Analyzer, UpdateForNetTracksCapChange) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 200.0)});
  const double m0 = an.margin_ps(ConstraintId{0});
  dg.set_net_cap(c.n0, 0.01);  // +2.6 ps on the path
  TimingAnalyzer::UpdateSlot slot(an);
  an.update_for_net(c.n0, slot);
  EXPECT_NEAR(an.margin_ps(ConstraintId{0}), m0 - 2.6, 1e-9);
}

TEST(Analyzer, LocalMarginEquation2) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 200.0)});
  const ConstraintId p{0};
  const double m = an.margin_ps(p);
  // n1 lies on the critical path of the constraint: raising its arc delay
  // by Δ lowers LM by exactly Δ.
  const double d_now = dg.net_arc_delay(c.n1);
  EXPECT_NEAR(an.local_margin_ps(p, c.n1, d_now), m, 1e-9);
  EXPECT_NEAR(an.local_margin_ps(p, c.n1, d_now + 7.0), m - 7.0, 1e-9);
  // Lowering the delay cannot raise LM above M (max(0, ·) clamp).
  EXPECT_NEAR(an.local_margin_ps(p, c.n1, d_now - 5.0), m, 1e-9);
}

TEST(Analyzer, EvaluateCountsViolations) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  // Tight limit: margin is small.
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 180.0)});
  const double margin = an.margin_ps(ConstraintId{0});
  ASSERT_GT(margin, 0.0);
  ASSERT_LT(margin, 5.0);
  // A cap increase on n1 beyond the margin flips C_d to 1 and Gl > 0.
  const double td = 300.0;  // NOR2 output Td
  const double cap_big = (margin + 10.0) / td;
  const DelayCriteria dc = an.evaluate(c.n1, cap_big);
  EXPECT_EQ(dc.critical_count, 1);
  EXPECT_GT(dc.global_delay, 0.0);
  EXPECT_GT(dc.local_delay, 0.0);
  // A tiny increase keeps C_d at 0 but still penalises Gl.
  const DelayCriteria small = an.evaluate(c.n1, margin / (10.0 * td));
  EXPECT_EQ(small.critical_count, 0);
  EXPECT_GT(small.global_delay, 0.0);
  EXPECT_LT(small.global_delay, dc.global_delay);
}

TEST(Analyzer, EvaluateOutsideConstraintsIsZero) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 200.0)});
  const DelayCriteria dc = an.evaluate(c.q, 5.0);
  EXPECT_EQ(dc.critical_count, 0);
  EXPECT_DOUBLE_EQ(dc.global_delay, 0.0);
  EXPECT_DOUBLE_EQ(dc.local_delay, 0.0);
}

TEST(Analyzer, CriticalPathNets) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 200.0)});
  const auto nets = an.critical_path_nets(ConstraintId{0});
  // The single A→D path: nets a, n0, n1.
  EXPECT_EQ(nets.size(), 3u);
}

TEST(Analyzer, ViolatedAndWorstMargin) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 150.0),
                         constraint_a_to_d(c, 400.0)});
  EXPECT_EQ(an.violated().size(), 1u);
  EXPECT_NEAR(an.worst_margin_ps(), 150.0 - ChainCircuit::kPathADelayPs, 1e-9);
}

TEST(Analyzer, NetSlacksAscendingWithCriticality) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  TimingAnalyzer an(dg, {constraint_a_to_d(c, 200.0)});
  const auto slacks = an.net_slacks();
  // Constraint nets share the single path: identical slack = margin.
  EXPECT_NEAR(slacks[c.n0], an.margin_ps(ConstraintId{0}), 1e-9);
  EXPECT_NEAR(slacks[c.n1], an.margin_ps(ConstraintId{0}), 1e-9);
  // Unconstrained nets have infinite slack.
  EXPECT_TRUE(std::isinf(slacks[c.q]));
}

/// Updates routed through two UpdateSlots in turn leave the analyzer in
/// exactly the state of a single-slot run: the slots hold scratch and
/// counters only, and absorb() folds the counters back without loss.
TEST(Analyzer, TwoSlotsMatchOneSlot) {
  const Dataset ds = generate_circuit(testutil::small_spec(5));
  for (const bool incremental : {true, false}) {
    DelayGraph dg_one(ds.netlist);
    DelayGraph dg_two(ds.netlist);
    TimingAnalyzer one(dg_one, ds.constraints, incremental);
    TimingAnalyzer two(dg_two, ds.constraints, incremental);
    TimingAnalyzer::UpdateSlot slot(one);
    TimingAnalyzer::UpdateSlot slots[2] = {TimingAnalyzer::UpdateSlot(two),
                                           TimingAnalyzer::UpdateSlot(two)};
    std::vector<NetId> nets;
    for (const NetId n : ds.netlist.nets()) {
      if (!one.constraints_of_net(n).empty()) nets.push_back(n);
    }
    ASSERT_FALSE(nets.empty());
    Rng rng(11);
    for (int step = 0; step < 200; ++step) {
      const NetId n = nets[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(nets.size()) - 1))];
      const double cap = rng.uniform_real(0.0, 0.3);
      dg_one.set_net_cap(n, cap);
      dg_two.set_net_cap(n, cap);
      one.update_for_net(n, slot);
      two.update_for_net(n, slots[step % 2]);
    }
    for (const ConstraintId p : one.constraints()) {
      EXPECT_EQ(one.longest_prefix(p), two.longest_prefix(p)) << p.index();
      EXPECT_EQ(one.margin_ps(p), two.margin_ps(p)) << p.index();
      EXPECT_EQ(one.version(p), two.version(p)) << p.index();
    }
    one.absorb(slot);
    two.absorb(slots[0]);
    two.absorb(slots[1]);
    const StaStats& a = one.sta_stats();
    const StaStats& b = two.sta_stats();
    EXPECT_EQ(a.incremental_updates, b.incremental_updates);
    EXPECT_EQ(a.full_sweeps, b.full_sweeps);
    EXPECT_EQ(a.dirty_seeds, b.dirty_seeds);
    EXPECT_EQ(a.dirty_vertices, b.dirty_vertices);
    EXPECT_EQ(a.full_vertices, b.full_vertices);
    EXPECT_GT(incremental ? a.incremental_updates : a.full_sweeps,
              static_cast<std::int64_t>(ds.constraints.size()))
        << "updates never reached the counters";
  }
}

}  // namespace
}  // namespace bgr
