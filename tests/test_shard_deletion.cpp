// Differential battery for the sharded §3.4 deletion loop (DESIGN.md §13).
// The contract under test: partitioning the candidate nets into
// interaction-disjoint shards, running each shard's greedy loop on its own
// worker and replaying the commits in merged canonical order must be
// *bit-identical* to the unsharded serial greedy — same RouteOutcome, same
// per-net routed lengths, same constraint margins, and the same committed
// deletion sequence — at every thread count, across a population of
// generated designs (blocked multi-shard designs, and single-component
// designs that exercise the fallback).
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bgr/gen/generator.hpp"
#include "bgr/route/router.hpp"
#include "bgr/route/shard.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

using testutil::shard_spec;

struct Routed {
  RouteOutcome outcome;
  std::vector<double> net_lengths_um;
  std::vector<double> margins;
  /// Committed deletions (primary net index, edge id) in observer order.
  std::vector<std::pair<std::int32_t, std::int32_t>> deletions;
};

Routed route(Dataset design, bool shard, std::int32_t threads) {
  RouterOptions options;
  options.shard_deletion = shard;
  options.threads = threads;
  Routed r;
  options.deletion_observer = [&r](NetId n, std::int32_t e) {
    r.deletions.emplace_back(n.index(), e);
  };
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  r.outcome = router.run();
  for (const NetId n : design.netlist.nets()) {
    r.net_lengths_um.push_back(router.net_length_um(n));
  }
  for (const ConstraintId p : router.analyzer().constraints()) {
    r.margins.push_back(router.analyzer().margin_ps(p));
  }
  return r;
}

void expect_identical(const Routed& a, const Routed& b) {
  // EXPECT_EQ on doubles throughout: the contract is bit-identity.
  EXPECT_EQ(a.outcome.critical_delay_ps, b.outcome.critical_delay_ps);
  EXPECT_EQ(a.outcome.total_length_um, b.outcome.total_length_um);
  EXPECT_EQ(a.outcome.violated_constraints, b.outcome.violated_constraints);
  EXPECT_EQ(a.outcome.worst_margin_ps, b.outcome.worst_margin_ps);
  EXPECT_EQ(a.outcome.feed_cells_added, b.outcome.feed_cells_added);
  ASSERT_EQ(a.outcome.phases.size(), b.outcome.phases.size());
  for (std::size_t i = 0; i < a.outcome.phases.size(); ++i) {
    EXPECT_EQ(a.outcome.phases[i].deletions, b.outcome.phases[i].deletions)
        << a.outcome.phases[i].name;
    EXPECT_EQ(a.outcome.phases[i].reroutes, b.outcome.phases[i].reroutes)
        << a.outcome.phases[i].name;
  }
  EXPECT_EQ(a.net_lengths_um, b.net_lengths_um);
  EXPECT_EQ(a.margins, b.margins);
  EXPECT_EQ(a.deletions, b.deletions) << "deletion sequences diverge";
}

// The battery: ≥50 generated designs, each routed unsharded-serial (the
// reference) and sharded at threads {1, 2, 8}.
TEST(ShardDeletion, BatteryBitIdenticalToSerialReference) {
  std::vector<CircuitSpec> specs;
  // 38 blocked designs, 2–5 cones each.
  for (std::uint64_t seed = 100; seed < 138; ++seed) {
    specs.push_back(shard_spec(seed, 2 + static_cast<std::int32_t>(seed % 4)));
  }
  // 12 plain single-band designs: usually one interaction component, so
  // the sharded path must take its fallback and still match.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    specs.push_back(testutil::small_spec(seed));
  }
  ASSERT_GE(specs.size(), 50u);

  for (const CircuitSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const Routed reference =
        route(generate_circuit(spec), /*shard=*/false, /*threads=*/1);
    for (const std::int32_t threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_identical(reference, route(generate_circuit(spec),
                                        /*shard=*/true, threads));
    }
  }
}

// Property: two nets in different shards share no channel and no
// constraint, and the shards partition the candidate nets.
TEST(ShardDeletion, CrossShardResourceDisjointness) {
  for (const std::uint64_t seed : {301u, 302u, 303u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Dataset design = generate_circuit(shard_spec(seed, 4));
    RouterOptions options;
    GlobalRouter router(design.netlist, std::move(design.placement),
                        design.tech, design.constraints, options);
    (void)router.run();
    const ShardDecomposition& dec = router.shard_decomposition();
    ASSERT_GT(dec.shard_count(), 1) << "design did not decompose";

    ASSERT_EQ(dec.shard_of.size(), dec.nets.size());
    std::vector<bool> seen(dec.nets.size(), false);
    std::set<std::pair<std::int32_t, std::int32_t>> channel_owner;
    std::set<std::pair<std::int32_t, std::int32_t>> constraint_owner;
    for (std::int32_t s = 0; s < dec.shard_count(); ++s) {
      EXPECT_FALSE(dec.shards[static_cast<std::size_t>(s)].empty());
      for (const std::int32_t i : dec.shards[static_cast<std::size_t>(s)]) {
        EXPECT_EQ(dec.shard_of[static_cast<std::size_t>(i)], s);
        EXPECT_FALSE(seen[static_cast<std::size_t>(i)]) << "net in 2 shards";
        seen[static_cast<std::size_t>(i)] = true;
        for (const std::int32_t c :
             dec.nets[static_cast<std::size_t>(i)].channels) {
          channel_owner.insert({c, s});
        }
        for (const std::int32_t p :
             dec.nets[static_cast<std::size_t>(i)].constraints) {
          constraint_owner.insert({p, s});
        }
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_TRUE(seen[i]) << "net index " << i << " unassigned";
    }
    // A resource owned by two shards would appear twice with distinct
    // shard ids: adjacent entries of the ordered set expose it.
    auto expect_unique_owner = [](
        const std::set<std::pair<std::int32_t, std::int32_t>>& owners,
        const char* what) {
      std::int32_t prev_resource = -1;
      for (const auto& [resource, shard] : owners) {
        EXPECT_NE(resource, prev_resource)
            << what << " " << resource << " shared across shards";
        prev_resource = resource;
      }
    };
    expect_unique_owner(channel_owner, "channel");
    expect_unique_owner(constraint_owner, "constraint");
  }
}

// Property: the decomposition — membership, shard order, and the
// per-shard commit counts — is a pure function of the design, independent
// of the thread count.
TEST(ShardDeletion, DecompositionThreadCountInvariant) {
  const CircuitSpec spec = shard_spec(310, 5);
  struct Snapshot {
    std::vector<std::vector<std::int32_t>> shards;
    std::vector<std::int32_t> net_ids;
    std::vector<std::int64_t> commits;
  };
  auto snapshot = [&](std::int32_t threads) {
    Dataset design = generate_circuit(spec);
    RouterOptions options;
    options.threads = threads;
    GlobalRouter router(design.netlist, std::move(design.placement),
                        design.tech, design.constraints, options);
    (void)router.run();
    const ShardDecomposition& dec = router.shard_decomposition();
    Snapshot s;
    s.shards = dec.shards;
    for (const ShardNetInfo& info : dec.nets) {
      s.net_ids.push_back(info.net.index());
    }
    s.commits = dec.commits;
    return s;
  };
  const Snapshot one = snapshot(1);
  ASSERT_GT(one.shards.size(), 1u);
  for (const std::int32_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Snapshot n = snapshot(threads);
    EXPECT_EQ(one.shards, n.shards);
    EXPECT_EQ(one.net_ids, n.net_ids);
    EXPECT_EQ(one.commits, n.commits);
  }
}

// The shard commit counters account for every committed deletion of the
// initial phase (the only phase that shards its selection loop).
TEST(ShardDeletion, CommitCountersMatchPhaseDeletions) {
  Dataset design = generate_circuit(shard_spec(320, 3));
  RouterOptions options;
  options.threads = 2;
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  const RouteOutcome outcome = router.run();
  const ShardDecomposition& dec = router.shard_decomposition();
  ASSERT_GT(dec.shard_count(), 1);
  std::int64_t commits = 0;
  for (std::int32_t s = 0; s < dec.shard_count(); ++s) {
    commits += dec.commits[static_cast<std::size_t>(s)];
  }
  ASSERT_FALSE(outcome.phases.empty());
  EXPECT_EQ(outcome.phases[0].name, "initial");
  EXPECT_EQ(commits, outcome.phases[0].deletions);
}

// Cancel inside the selection loops (DESIGN.md §5): the predicate flips
// at a chosen poll, counted by a dry run, and the run throws
// CancelledError from inside a shard worker's loop — the parallel region
// rethrows at its join. Flipping at the last poll before the first
// replayed commit lands in the sharded initial loop; flipping at the very
// last poll lands in the last shard-parallel area pass.
TEST(ShardDeletion, CancelInsideShardWorkers) {
  const CircuitSpec spec = shard_spec(341, 4);
  struct DryRun {
    std::int64_t polls = 0;
    std::int64_t polls_before_first_commit = -1;
  };
  DryRun dry;
  {
    Dataset design = generate_circuit(spec);
    RouterOptions options;
    options.cancel_requested = [&dry] {
      ++dry.polls;
      return false;
    };
    options.deletion_observer = [&dry](NetId, std::int32_t) {
      if (dry.polls_before_first_commit < 0) {
        dry.polls_before_first_commit = dry.polls;
      }
    };
    GlobalRouter router(design.netlist, std::move(design.placement),
                        design.tech, design.constraints, options);
    const RouteOutcome outcome = router.run();
    ASSERT_GT(router.shard_decomposition().shard_count(), 1);
    ASSERT_GT(outcome.phases.back().reroutes, 0);
  }
  ASSERT_GT(dry.polls_before_first_commit, 0);
  struct Case {
    const char* phase;
    std::int64_t flip_at;    // 1-based poll that first returns true
    bool commits_replayed;   // initial's commits reached the observer
  };
  for (const Case& c : {Case{"initial", dry.polls_before_first_commit, false},
                        Case{"improve_area", dry.polls, true}}) {
    for (const std::int32_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.phase) +
                   " threads=" + std::to_string(threads));
      Dataset design = generate_circuit(spec);
      RouterOptions options;
      options.threads = threads;
      std::atomic<std::int64_t> polls{0};
      options.cancel_requested = [&polls, flip = c.flip_at] {
        return polls.fetch_add(1) + 1 >= flip;
      };
      std::atomic<std::int64_t> commits{0};
      options.deletion_observer = [&commits](NetId, std::int32_t) {
        commits.fetch_add(1);
      };
      GlobalRouter router(design.netlist, std::move(design.placement),
                          design.tech, design.constraints, options);
      try {
        (void)router.run();
        ADD_FAILURE() << "run() must throw CancelledError";
      } catch (const CancelledError& e) {
        EXPECT_NE(std::string(e.what()).find("edge deletion"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(commits.load() > 0, c.commits_replayed);
      EXPECT_EQ(router.run_state(), GlobalRouter::RunState::kRunning);
    }
  }
}

}  // namespace
}  // namespace bgr
