#pragma once

#include <array>
#include <bit>
#include <cmath>
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
/// order. The tier order is fixed until the next clear(): each selection
/// loop keys its index under the router's current order.
///
/// The root is therefore *the* unique minimum — the same edge a first-wins
/// rescan of the candidates would pick in any scan order, and whatever
/// order the slots were added in. Re-keying or removing a slot only marks
/// its leaf; the next top() replays the marked paths bottom-up, so a batch
/// of k updates costs at most k·log n comparisons with shared ancestors
/// recomputed once (and fewer the closer the marked leaves sit).
///
/// Keys are held packed: the tiers, in the index's tier order, as six
/// big-endian words whose unsigned lexicographic order is key_compare's
/// order (ints biased, doubles bit-mapped, −0.0 stored as +0.0). Most
/// comparisons are word compares; only equal words, or a key holding a
/// NaN, fall back to compare_selection.
class SelectionIndex {
 public:
  explicit SelectionIndex(CriteriaOrder order) : order_(order) {}

  /// Drops every slot and switches to `order`, keeping the allocations
  /// for the next selection loop.
  void clear(CriteriaOrder order);
  /// Room for `slots` slots without reallocating.
  void reserve(std::size_t slots) { entries_.reserve(slots); }

  /// Appends a candidate slot (not live until its first set_key). `name`
  /// must outlive the index. Returns the slot id, dense from 0.
  std::int32_t add(NetId net, std::int32_t edge, const std::string& name);

  /// Inserts the slot (first call) or re-keys it.
  void set_key(std::int32_t slot, const SelectionKey& key) {
    Entry& e = entries_[static_cast<std::size_t>(slot)];
    if (!e.live) {
      e.live = true;
      ++live_;
    }
    e.words = pack(key);
    e.nan = std::isnan(key.global_delay) || std::isnan(key.local_delay) ||
            std::isnan(key.neg_length);
    nan_keys_ += e.nan ? 1 : 0;
    mark(slot);
  }
  /// Re-keys a live slot to its key with the density tiers (F_m, N_m,
  /// F_M, N_M) taken from `tiers`: set_key's effect without unpacking
  /// the other tiers. Leaves the tree untouched when they are unchanged.
  void set_density(std::int32_t slot, const SelectionKey& tiers) {
    // The density tiers fill two whole words: 3 and 4 delay first, 1 and
    // 2 area first (see pack()).
    const std::size_t at = order_ == CriteriaOrder::kDelayFirst ? 3 : 1;
    const std::uint64_t lo = pack_int(tiers.f_min) << 32 | pack_int(tiers.n_min);
    const std::uint64_t hi = pack_int(tiers.f_max) << 32 | pack_int(tiers.n_max);
    Words& w = entries_[static_cast<std::size_t>(slot)].words;
    if (w[at] == lo && w[at + 1] == hi) return;
    w[at] = lo;
    w[at + 1] = hi;
    mark(slot);
  }
  /// Takes the slot out of the competition for good.
  void remove(std::int32_t slot);

  /// Live slot with the smallest key, or -1 when none is live.
  [[nodiscard]] std::int32_t top();
  /// Number of live slots.
  [[nodiscard]] std::int64_t size() const { return live_; }
  /// set_key calls since the last clear() whose key held a NaN.
  [[nodiscard]] std::int64_t nan_keys() const { return nan_keys_; }
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
  /// The slot's last key, all-zero before the first set_key (a −0.0
  /// tier reads back as +0.0).
  [[nodiscard]] SelectionKey key(std::int32_t slot) const {
    const Words& w = entries_[static_cast<std::size_t>(slot)].words;
    // Branch and the four density tiers as 64-, 64- and 32-bit runs.
    std::uint64_t density[3];
    std::uint64_t gl = 0;
    std::uint64_t ld = 0;
    if (order_ == CriteriaOrder::kDelayFirst) {
      gl = w[0] << 32 | w[1] >> 32;
      ld = w[1] << 32 | w[2] >> 32;
      density[0] = w[2] << 32 | w[3] >> 32;
      density[1] = w[3] << 32 | w[4] >> 32;
      density[2] = w[4];
    } else {
      density[0] = w[0] << 32 | w[1] >> 32;
      density[1] = w[1] << 32 | w[2] >> 32;
      density[2] = w[2];
      gl = w[3];
      ld = w[4];
    }
    SelectionKey k;
    k.critical_count = unpack_int(w[0] >> 32);
    k.global_delay = unpack_double(gl);
    k.local_delay = unpack_double(ld);
    k.branch = unpack_int(density[0] >> 32);
    k.f_min = unpack_int(density[0]);
    k.n_min = unpack_int(density[1] >> 32);
    k.f_max = unpack_int(density[1]);
    k.n_max = unpack_int(density[2]);
    k.neg_length = unpack_double(w[5]);
    return k;
  }

 private:
  using Words = std::array<std::uint64_t, 6>;
  struct Entry {
    Words words{};
    const std::string* name = nullptr;
    NetId net;
    std::int32_t edge = -1;
    bool live = false;
    bool nan = false;  // some tier is NaN: compare the unpacked keys
  };

  static constexpr std::uint64_t kSign64 = std::uint64_t{1} << 63;
  static constexpr std::uint32_t kSign32 = std::uint32_t{1} << 31;
  /// Order-preserving maps to unsigned words: an int is biased by 2^31; a
  /// double sets its sign bit when non-negative and is inverted when
  /// negative, after folding −0.0 to +0.0 (the two compare equal). NaN
  /// bits round-trip; their order is not used.
  static std::uint64_t pack_int(std::int32_t v) {
    return std::bit_cast<std::uint32_t>(v) ^ kSign32;
  }
  static std::int32_t unpack_int(std::uint64_t w) {
    return std::bit_cast<std::int32_t>(static_cast<std::uint32_t>(w) ^
                                       kSign32);
  }
  /// Branch-free: the sign decides the mask, and tiers' signs vary.
  static std::uint64_t pack_double(double v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    bits &= ~std::uint64_t{0} + (bits == kSign64 ? 1 : 0);  // −0.0 → +0.0
    const auto negative = static_cast<std::uint64_t>(
        std::bit_cast<std::int64_t>(bits) >> 63);
    return bits ^ (negative | kSign64);
  }
  static double unpack_double(std::uint64_t w) {
    const auto non_negative =
        static_cast<std::uint64_t>(std::bit_cast<std::int64_t>(w) >> 63);
    return std::bit_cast<double>(w ^ (~non_negative | kSign64));
  }
  /// The key's tiers as words in this index's tier order: C_d, then Gl,
  /// LD, branch and the density tiers (delay first) or branch, the density
  /// tiers, Gl, LD (area first); length last.
  [[nodiscard]] Words pack(const SelectionKey& key) const {
    const std::uint64_t cd = pack_int(key.critical_count);
    const std::uint64_t gl = pack_double(key.global_delay);
    const std::uint64_t ld = pack_double(key.local_delay);
    const std::uint64_t density[3] = {
        pack_int(key.branch) << 32 | pack_int(key.f_min),
        pack_int(key.n_min) << 32 | pack_int(key.f_max), pack_int(key.n_max)};
    if (order_ == CriteriaOrder::kDelayFirst) {
      return {cd << 32 | gl >> 32,
              gl << 32 | ld >> 32,
              ld << 32 | density[0] >> 32,
              density[0] << 32 | density[1] >> 32,
              density[1] << 32 | density[2],
              pack_double(key.neg_length)};
    }
    return {cd << 32 | density[0] >> 32,
            density[0] << 32 | density[1] >> 32,
            density[1] << 32 | density[2],
            gl,
            ld,
            pack_double(key.neg_length)};
  }
  /// Touches a leaf so the next top() recomputes its root path.
  void mark(std::int32_t slot) {
    if (rebuild_) return;  // the pending full rebuild covers every leaf
    const std::size_t node = leaf_base_ + static_cast<std::size_t>(slot);
    if (touched_[node] == 0) {
      touched_[node] = 1;
      pending_.push_back(node);
    }
  }
  /// Sizes the tree to the slot count and recomputes every node (first
  /// top() after an add).
  void build();
  /// True when slot `a` is deleted before slot `b`.
  [[nodiscard]] bool before(std::int32_t a, std::int32_t b) const;
  [[nodiscard]] std::int32_t winner(std::int32_t a, std::int32_t b) const;

  CriteriaOrder order_;
  std::vector<Entry> entries_;
  std::int64_t live_ = 0;
  std::int64_t nan_keys_ = 0;
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
