#pragma once

#include <cstdint>
#include <vector>

#include "bgr/common/ids.hpp"

namespace bgr {

/// Interaction footprint of one primary net in the concurrent edge-deletion
/// loop of §3.4: the channels any edge of its routing graph (and its
/// differential shadow's) touches, and the timing constraints the net (or
/// its shadow) belongs to. Channels cover the loop's full read/write set —
/// candidate scoring reads channel-wide density aggregates, and a deletion
/// (with its pruned tail and re-flagged bridges) can update density on any
/// of the net's channels. Constraints cover the STA side: an estimate
/// refresh rewrites lp/margin/version of exactly the member constraints.
struct ShardNetInfo {
  NetId net;                               // primary member of the pair
  std::vector<std::int32_t> channels;      // sorted, unique
  std::vector<std::int32_t> constraints;   // sorted, unique
};

/// Partition of the primary nets into interaction-disjoint shards: the
/// connected components of the bipartite net↔resource graph where the
/// resources are channels and constraints. Two nets in *different* shards
/// share no channel and no constraint, so their deletion loops read and
/// write disjoint state; within a shard nets may interact arbitrarily.
///
/// Components — rather than a finer coloring — are what keeps the sharded
/// loop bit-identical to the serial greedy: a commit can change the keys
/// of every net it shares a resource with, so only resource-disjoint nets
/// have order-independent selections (DESIGN.md §13).
struct ShardDecomposition {
  std::vector<ShardNetInfo> nets;
  /// shards[s] lists indices into `nets`; shard order and membership are a
  /// pure function of the footprints (first-touch over ascending net ids),
  /// hence identical at any thread count.
  std::vector<std::vector<std::int32_t>> shards;
  /// shard_of[i] is the shard of nets[i].
  std::vector<std::int32_t> shard_of;
  /// Filled by the deletion loop: committed deletions per shard.
  std::vector<std::int64_t> commits;

  [[nodiscard]] std::int32_t shard_count() const {
    return static_cast<std::int32_t>(shards.size());
  }
};

/// Builds the decomposition by union-find over net + channel + constraint
/// nodes. `channel_count` / `constraint_count` bound the resource ids in
/// the footprints.
[[nodiscard]] ShardDecomposition compute_shards(std::vector<ShardNetInfo> nets,
                                                std::int32_t channel_count,
                                                std::int32_t constraint_count);

}  // namespace bgr
