// Differential hardening of the incremental STA engine: on dozens of
// generated designs across seeds, delay models and thread counts, after
// *every* committed edge deletion the incrementally maintained arrival
// times, constraint margins and per-net slacks must be bit-identical to a
// from-scratch recompute by an independent full-sweep analyzer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "bgr/gen/generator.hpp"
#include "bgr/route/router.hpp"

namespace bgr {
namespace {

/// Small but non-trivial circuit: enough constraints and differential
/// pairs to exercise every update path while keeping the per-deletion
/// cross-check (a full analyzer recompute) affordable.
CircuitSpec small_spec(std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = "DIFF" + std::to_string(seed);
  spec.seed = seed;
  spec.rows = 5;
  spec.target_cells = 70;
  spec.levels = 6;
  spec.primary_inputs = 6;
  spec.primary_outputs = 6;
  spec.diff_pairs = 2;
  spec.clock_buffers = 1;
  spec.path_constraints = 8;
  return spec;
}

/// Routes one generated design with the incremental analyzer and, after
/// every deletion, compares against a reference analyzer that recomputes
/// everything from scratch. Returns the number of deletion steps checked.
std::int64_t check_design(std::uint64_t seed, DelayModel model,
                          std::int32_t threads) {
  Dataset design = generate_circuit(small_spec(seed));

  RouterOptions options;
  options.threads = threads;
  options.delay_model = model;
  options.incremental_sta = true;

  std::unique_ptr<GlobalRouter> router;
  std::unique_ptr<TimingAnalyzer> reference;
  std::int64_t steps = 0;
  options.deletion_observer = [&](NetId, std::int32_t) {
    if (::testing::Test::HasFatalFailure()) return;  // don't spam after one
    ++steps;
    // The reference shares the router's delay graph (it only reads it) but
    // recomputes arrival times from scratch on every step.
    if (!reference) {
      reference = std::make_unique<TimingAnalyzer>(router->delay_graph(),
                                                   design.constraints);
    } else {
      reference->update_all();
    }
    const TimingAnalyzer& incremental = router->analyzer();
    ASSERT_EQ(incremental.constraint_count(), reference->constraint_count());
    for (const ConstraintId p : incremental.constraints()) {
      ASSERT_EQ(incremental.margin_ps(p), reference->margin_ps(p))
          << "margin diverged, constraint " << p.index() << " step " << steps;
      const auto& inc_lp = incremental.longest_prefix(p);
      const auto& ref_lp = reference->longest_prefix(p);
      ASSERT_EQ(inc_lp, ref_lp)
          << "arrival times diverged, constraint " << p.index() << " step "
          << steps;
    }
    const auto inc_slacks = incremental.net_slacks();
    const auto ref_slacks = reference->net_slacks();
    ASSERT_EQ(inc_slacks.size(), ref_slacks.size());
    for (std::size_t i = 0; i < inc_slacks.size(); ++i) {
      ASSERT_EQ(inc_slacks[NetId{static_cast<std::int32_t>(i)}],
                ref_slacks[NetId{static_cast<std::int32_t>(i)}])
          << "net slack diverged, net " << i << " step " << steps;
    }
  };

  router = std::make_unique<GlobalRouter>(design.netlist,
                                          std::move(design.placement),
                                          design.tech, design.constraints,
                                          options);
  (void)router->run();
  EXPECT_GT(steps, 0) << "observer never fired (seed " << seed << ")";
  return steps;
}

TEST(IncrementalStaDifferential, LumpedSeedsA) {
  for (std::uint64_t seed = 1; seed <= 11; ++seed) {
    check_design(seed, DelayModel::kLumpedC, /*threads=*/1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalStaDifferential, LumpedSeedsB) {
  for (std::uint64_t seed = 12; seed <= 22; ++seed) {
    check_design(seed, DelayModel::kLumpedC, /*threads=*/1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalStaDifferential, RcSeedsA) {
  for (std::uint64_t seed = 1; seed <= 11; ++seed) {
    check_design(seed, DelayModel::kElmoreRC, /*threads=*/1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalStaDifferential, RcSeedsB) {
  for (std::uint64_t seed = 12; seed <= 22; ++seed) {
    check_design(seed, DelayModel::kElmoreRC, /*threads=*/1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalStaDifferential, TwoThreads) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_design(seed, DelayModel::kLumpedC, /*threads=*/2);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalStaDifferential, EightThreads) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_design(seed, DelayModel::kLumpedC, /*threads=*/8);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The flag must not change what gets routed: incremental on and off give
/// the same RouteOutcome (and the same per-phase deletion trace) on fresh
/// copies of the same design.
TEST(IncrementalStaDifferential, OutcomeMatchesFullRecompute) {
  for (const std::uint64_t seed : {3u, 7u}) {
    for (const DelayModel model : {DelayModel::kLumpedC,
                                   DelayModel::kElmoreRC}) {
      RouteOutcome outcomes[2];
      for (const bool incremental : {false, true}) {
        Dataset design = generate_circuit(small_spec(seed));
        RouterOptions options;
        options.delay_model = model;
        options.incremental_sta = incremental;
        GlobalRouter router(design.netlist, std::move(design.placement),
                            design.tech, design.constraints, options);
        outcomes[incremental ? 1 : 0] = router.run();
      }
      const RouteOutcome& off = outcomes[0];
      const RouteOutcome& on = outcomes[1];
      EXPECT_EQ(off.critical_delay_ps, on.critical_delay_ps);
      EXPECT_EQ(off.total_length_um, on.total_length_um);
      EXPECT_EQ(off.worst_margin_ps, on.worst_margin_ps);
      EXPECT_EQ(off.violated_constraints, on.violated_constraints);
      ASSERT_EQ(off.phases.size(), on.phases.size());
      for (std::size_t i = 0; i < off.phases.size(); ++i) {
        EXPECT_EQ(off.phases[i].deletions, on.phases[i].deletions);
        EXPECT_EQ(off.phases[i].reroutes, on.phases[i].reroutes);
        EXPECT_EQ(off.phases[i].sum_max_density, on.phases[i].sum_max_density);
      }
    }
  }
}

}  // namespace
}  // namespace bgr
