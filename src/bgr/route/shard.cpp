#include "bgr/route/shard.hpp"

#include <algorithm>

#include "bgr/common/check.hpp"

namespace bgr {

namespace {

/// Plain union-find with path halving; union by attaching the larger root
/// id under the smaller keeps root selection a pure function of the input.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::int32_t>(i);
    }
  }

  std::int32_t find(std::int32_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
  }

 private:
  std::vector<std::int32_t> parent_;
};

}  // namespace

ShardDecomposition compute_shards(std::vector<ShardNetInfo> nets,
                                  std::int32_t channel_count,
                                  std::int32_t constraint_count) {
  const auto n = static_cast<std::int32_t>(nets.size());
  // Node layout: [0, n) nets, [n, n + channels) channels, then constraints.
  UnionFind uf(static_cast<std::size_t>(n) +
               static_cast<std::size_t>(channel_count) +
               static_cast<std::size_t>(constraint_count));
  for (std::int32_t i = 0; i < n; ++i) {
    for (const auto c : nets[static_cast<std::size_t>(i)].channels) {
      BGR_CHECK(c >= 0 && c < channel_count);
      uf.unite(i, n + c);
    }
    for (const auto p : nets[static_cast<std::size_t>(i)].constraints) {
      BGR_CHECK(p >= 0 && p < constraint_count);
      uf.unite(i, n + channel_count + p);
    }
  }

  ShardDecomposition out;
  out.nets = std::move(nets);
  out.shard_of.assign(static_cast<std::size_t>(n), -1);
  // Shards in order of first appearance over ascending net index; membership
  // depends only on the footprints.
  std::vector<std::int32_t> shard_of_root(
      static_cast<std::size_t>(n) + static_cast<std::size_t>(channel_count) +
          static_cast<std::size_t>(constraint_count),
      -1);
  for (std::int32_t i = 0; i < n; ++i) {
    const auto root = uf.find(i);
    auto& s = shard_of_root[static_cast<std::size_t>(root)];
    if (s < 0) {
      s = static_cast<std::int32_t>(out.shards.size());
      out.shards.emplace_back();
    }
    out.shard_of[static_cast<std::size_t>(i)] = s;
    out.shards[static_cast<std::size_t>(s)].push_back(i);
  }
  out.commits.assign(out.shards.size(), 0);
  return out;
}

}  // namespace bgr
