#include <gtest/gtest.h>

#include <functional>

#include "bgr/common/rng.hpp"
#include "bgr/graph/dag.hpp"
#include "bgr/timing/analyzer.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

using testutil::ChainCircuit;

/// Brute-force longest path by recursive enumeration (small graphs only).
double brute_longest(const Dag& dag, std::int32_t from, std::int32_t to) {
  if (from == to) return 0.0;
  double best = Dag::kMinusInf;
  for (const auto e : dag.out_edges(from)) {
    const auto& ed = dag.edge(e);
    const double rest = brute_longest(dag, ed.to, to);
    if (rest != Dag::kMinusInf) best = std::max(best, ed.weight + rest);
  }
  return best;
}

class DagRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagRandom, LongestPathMatchesEnumeration) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    Dag dag;
    const std::int32_t n = rng.uniform_i32(3, 10);
    for (std::int32_t i = 0; i < n; ++i) (void)dag.add_vertex();
    // Random DAG: edges only forward in index order.
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.4)) {
          (void)dag.add_edge(i, j, rng.uniform_real(1.0, 9.0));
        }
      }
    }
    dag.freeze();
    const auto lp = dag.longest_from({0});
    for (std::int32_t v = 0; v < n; ++v) {
      const double expected = brute_longest(dag, 0, v);
      if (expected == Dag::kMinusInf) {
        EXPECT_EQ(lp[static_cast<std::size_t>(v)], Dag::kMinusInf);
      } else {
        EXPECT_NEAR(lp[static_cast<std::size_t>(v)], expected, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagRandom, ::testing::Values(10u, 20u, 30u));

/// The paper's Eq. (2) claim: "If w is on the original critical path, the
/// LM(e, P) is exactly the new M(P) value after deleting e. Otherwise, it
/// is a rather pessimistic estimation of the new M(P) value." Hence the
/// post-commit margin is never below LM.
class LmPessimism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LmPessimism, CommittedMarginNeverBelowLocalMargin) {
  Rng rng(GetParam());
  ChainCircuit c;
  DelayGraph dg(c.nl);
  PathConstraint pc;
  pc.name = "A2D";
  pc.sources = {c.pad_a};
  pc.sinks = {c.d_term};
  pc.limit_ps = 220.0;
  TimingAnalyzer an(dg, {pc});
  TimingAnalyzer::UpdateSlot slot(an);
  const ConstraintId p{0};

  const NetId nets[] = {c.a, c.n0, c.n1};
  for (int round = 0; round < 60; ++round) {
    // Random current state.
    for (const NetId n : nets) {
      dg.set_net_cap(n, rng.uniform_real(0.0, 0.2));
    }
    an.update_all();
    // Random hypothetical new arc delay on one net.
    const NetId target = nets[static_cast<std::size_t>(rng.uniform(0, 2))];
    const double d_new = dg.net_arc_delay(target) + rng.uniform_real(-8.0, 25.0);
    const double lm = an.local_margin_ps(p, target, d_new);
    EXPECT_LE(lm, an.margin_ps(p) + 1e-9);  // LM never exceeds M

    // Commit the change exactly and compare.
    const auto factors = c.nl.net_driver_factors(target);
    const double base = c.nl.net_fanin_cap_pf(target) * factors.tf_ps_per_pf;
    const double cap_new = (d_new - base) / factors.td_ps_per_pf;
    dg.set_net_cap(target, cap_new);
    an.update_for_net(target, slot);
    EXPECT_GE(an.margin_ps(p), lm - 1e-9)
        << "LM must be a pessimistic bound (round " << round << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmPessimism, ::testing::Values(1u, 2u, 3u));

/// On the single-path fixture every net arc lies on the critical path, so
/// LM is exact, not just a bound.
TEST(LmPessimism, ExactOnCriticalPath) {
  ChainCircuit c;
  DelayGraph dg(c.nl);
  PathConstraint pc;
  pc.name = "A2D";
  pc.sources = {c.pad_a};
  pc.sinks = {c.d_term};
  pc.limit_ps = 220.0;
  TimingAnalyzer an(dg, {pc});
  const ConstraintId p{0};
  const double d_new = dg.net_arc_delay(c.n0) + 12.0;
  const double lm = an.local_margin_ps(p, c.n0, d_new);
  const auto factors = c.nl.net_driver_factors(c.n0);
  const double base = c.nl.net_fanin_cap_pf(c.n0) * factors.tf_ps_per_pf;
  dg.set_net_cap(c.n0, (d_new - base) / factors.td_ps_per_pf);
  TimingAnalyzer::UpdateSlot slot(an);
  an.update_for_net(c.n0, slot);
  EXPECT_NEAR(an.margin_ps(p), lm, 1e-9);
}

}  // namespace
}  // namespace bgr
