#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgr/common/ids.hpp"
#include "bgr/route/criteria.hpp"

namespace bgr {

/// Three-way comparison under the exact deletion order every §3.4
/// selection shares: the SelectionKey under `order`, then natural net name
/// (relabeling-invariant, natural_order.hpp), then edge id. Negative when
/// (ka, na, ea) is deleted first; 0 only for equal keys, names and edges.
[[nodiscard]] int compare_selection(const SelectionKey& ka,
                                    const std::string& na, std::int32_t ea,
                                    const SelectionKey& kb,
                                    const std::string& nb, std::int32_t eb,
                                    CriteriaOrder order);

/// Indexed argmin over the §3.4 candidate edges (DESIGN.md §5): a
/// tournament tree whose leaves are candidate slots and whose inner nodes
/// hold the better of their two children under compare_selection (then
/// raw net id, which only matters for duplicate names) — a strict total
/// order. The tier order is fixed for the index's lifetime: each selection
/// loop builds its own index under the router's current order.
///
/// The root is therefore *the* unique minimum — the
/// same edge a first-wins rescan of the candidates would pick in any scan
/// order. Re-keying or removing a slot only marks its leaf; the next top()
/// replays the marked paths bottom-up, so a batch of k updates costs at
/// most k·log n comparisons with shared ancestors recomputed once.
class SelectionIndex {
 public:
  explicit SelectionIndex(CriteriaOrder order) : order_(order) {}

  /// Appends a candidate slot (not live until its first set_key). `name`
  /// must outlive the index. Returns the slot id, dense from 0.
  std::int32_t add(NetId net, std::int32_t edge, const std::string& name);

  /// Inserts the slot (first call) or re-keys it.
  void set_key(std::int32_t slot, const SelectionKey& key);
  /// Takes the slot out of the competition for good.
  void remove(std::int32_t slot);

  /// Live slot with the smallest key, or -1 when none is live.
  [[nodiscard]] std::int32_t top();
  /// Number of live slots.
  [[nodiscard]] std::int64_t size() const { return live_; }
  [[nodiscard]] std::int32_t slot_count() const {
    return static_cast<std::int32_t>(entries_.size());
  }
  [[nodiscard]] bool live(std::int32_t slot) const {
    return entries_[static_cast<std::size_t>(slot)].live;
  }
  [[nodiscard]] NetId net(std::int32_t slot) const {
    return entries_[static_cast<std::size_t>(slot)].net;
  }
  [[nodiscard]] std::int32_t edge(std::int32_t slot) const {
    return entries_[static_cast<std::size_t>(slot)].edge;
  }
  [[nodiscard]] const SelectionKey& key(std::int32_t slot) const {
    return entries_[static_cast<std::size_t>(slot)].key;
  }

 private:
  struct Entry {
    SelectionKey key;
    const std::string* name = nullptr;
    NetId net;
    std::int32_t edge = -1;
    bool live = false;
  };

  /// Touches a leaf so the next top() recomputes its root path.
  void mark(std::int32_t slot);
  /// Sizes the tree to the slot count and recomputes every node (first
  /// top() after an add).
  void build();
  /// True when slot `a` is deleted before slot `b`.
  [[nodiscard]] bool before(std::int32_t a, std::int32_t b) const;
  [[nodiscard]] std::int32_t winner(std::int32_t a, std::int32_t b) const;

  CriteriaOrder order_;
  std::vector<Entry> entries_;
  std::int64_t live_ = 0;
  /// tree_[1] is the root; leaves start at leaf_base_; -1 marks "no live
  /// slot below".
  std::vector<std::int32_t> tree_;
  std::size_t leaf_base_ = 0;
  std::vector<std::size_t> pending_;  // touched tree nodes, one level
  std::vector<std::size_t> scratch_;  // next level up, swapped with pending_
  std::vector<char> touched_;         // per tree node: queued in pending_
  bool rebuild_ = true;               // recompute every inner node
};

}  // namespace bgr
