// Randomized differential battery for SelectionIndex (DESIGN.md §5): after
// every re-key and removal, under either tier order, the index's top() must
// equal the brute-force argmin of a first-wins scan under the exact total order
// (key, natural net name, edge). Keys are drawn from tiny domains so exact
// key ties, across nets and across edges of one net, are the common case.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bgr/common/natural_order.hpp"
#include "bgr/common/rng.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/criteria.hpp"
#include "bgr/route/router.hpp"
#include "bgr/route/selection_index.hpp"

namespace bgr {
namespace {

struct Model {
  NetId net;
  std::int32_t edge;
  const std::string* name;
  SelectionKey key;
  bool live = false;
};

/// Reference argmin: a linear scan, first smallest wins, exact key ties
/// broken on (natural net name, edge).
std::int32_t brute_force_top(const std::vector<Model>& slots,
                             CriteriaOrder order) {
  std::int32_t best = -1;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(slots.size()); ++i) {
    const Model& c = slots[static_cast<std::size_t>(i)];
    if (!c.live) continue;
    if (best < 0) {
      best = i;
      continue;
    }
    const Model& b = slots[static_cast<std::size_t>(best)];
    bool take = key_less(c.key, b.key, order);
    if (!take && !key_less(b.key, c.key, order)) {
      take = natural_less(*c.name, *b.name) ||
             (*c.name == *b.name && c.edge < b.edge);
    }
    if (take) best = i;
  }
  return best;
}

SelectionKey random_key(Rng& rng) {
  // Two or three values per tier: most pairs tie on most tiers. A third
  // of the keys are the all-zero key outright, so exact ties — across nets
  // and across edges of one net — are exercised constantly.
  SelectionKey k;
  if (rng.uniform(0, 2) == 0) return k;
  k.critical_count = static_cast<std::int32_t>(rng.uniform(0, 1));
  k.global_delay = 0.5 * static_cast<double>(rng.uniform(0, 2));
  k.local_delay = static_cast<double>(rng.uniform(0, 1));
  k.branch = static_cast<std::int32_t>(rng.uniform(0, 1));
  k.f_min = static_cast<std::int32_t>(rng.uniform(-1, 1));
  k.n_min = static_cast<std::int32_t>(rng.uniform(0, 1));
  k.f_max = static_cast<std::int32_t>(rng.uniform(-1, 1));
  k.n_max = static_cast<std::int32_t>(rng.uniform(0, 1));
  k.neg_length = -static_cast<double>(rng.uniform(1, 2));
  return k;
}

void run_battery(std::uint64_t seed, CriteriaOrder order) {
  Rng rng(seed);
  // Raw net ids deliberately disagree with the natural name order, and
  // "n2" vs "n10" order differently naturally than lexically.
  const std::vector<std::string> names = {"n10", "n2", "q1", "n1", "n100",
                                          "n20", "pi3"};
  const auto net_count = static_cast<std::int32_t>(names.size());
  SelectionIndex index(order);
  std::vector<Model> model;
  for (std::int32_t n = 0; n < net_count; ++n) {
    const std::int32_t edges = static_cast<std::int32_t>(rng.uniform(1, 9));
    for (std::int32_t e = 0; e < edges; ++e) {
      const std::int32_t edge = 3 * e + static_cast<std::int32_t>(n % 2);
      const std::int32_t slot =
          index.add(NetId{n}, edge, names[static_cast<std::size_t>(n)]);
      ASSERT_EQ(slot, static_cast<std::int32_t>(model.size()));
      model.push_back(Model{NetId{n}, edge, &names[static_cast<std::size_t>(n)],
                            SelectionKey{}, false});
    }
  }
  const auto slot_count = static_cast<std::int32_t>(model.size());
  for (std::int32_t s = 0; s < slot_count; ++s) {
    if (rng.uniform(0, 4) == 0) continue;  // some start outside
    const SelectionKey k = random_key(rng);
    index.set_key(s, k);
    model[static_cast<std::size_t>(s)].key = k;
    model[static_cast<std::size_t>(s)].live = true;
  }

  for (std::int32_t step = 0; step < 400; ++step) {
    // A batch of mutations between two reads, as after one commit.
    const std::int32_t batch = static_cast<std::int32_t>(rng.uniform(0, 4));
    for (std::int32_t m = 0; m < batch; ++m) {
      const auto s = static_cast<std::int32_t>(rng.uniform(0, slot_count - 1));
      Model& slot = model[static_cast<std::size_t>(s)];
      const auto op = rng.uniform(0, 9);
      if (op < 6) {
        slot.key = random_key(rng);
        slot.live = true;
        index.set_key(s, slot.key);
      } else {
        slot.live = false;
        index.remove(s);
      }
    }
    const std::int32_t expect = brute_force_top(model, order);
    ASSERT_EQ(index.top(), expect) << "seed " << seed << " step " << step;
    std::int64_t live = 0;
    for (const Model& m : model) live += m.live ? 1 : 0;
    ASSERT_EQ(index.size(), live);
  }
}

TEST(SelectionIndex, MatchesBruteForceDelayFirst) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_battery(seed, CriteriaOrder::kDelayFirst);
  }
}

TEST(SelectionIndex, MatchesBruteForceAreaFirst) {
  for (std::uint64_t seed = 101; seed <= 140; ++seed) {
    run_battery(seed, CriteriaOrder::kAreaFirst);
  }
}

TEST(SelectionIndex, ExactTiesBreakOnNaturalNameThenEdge) {
  const std::string n2 = "n2";
  const std::string n10 = "n10";
  SelectionIndex index(CriteriaOrder::kDelayFirst);
  // Lexically "n10" < "n2"; naturally n2 comes first. Net ids disagree
  // with both so neither the raw id nor the insertion order decides.
  const std::int32_t a = index.add(NetId{0}, 7, n10);
  const std::int32_t b = index.add(NetId{5}, 4, n2);
  const std::int32_t c = index.add(NetId{5}, 2, n2);
  const SelectionKey tie;
  for (const std::int32_t s : {a, b, c}) index.set_key(s, tie);
  EXPECT_EQ(index.top(), c);  // n2 before n10, then edge 2 before 4
  index.remove(c);
  EXPECT_EQ(index.top(), b);
  index.remove(b);
  EXPECT_EQ(index.top(), a);
  index.remove(a);
  EXPECT_EQ(index.top(), -1);
  EXPECT_EQ(index.size(), 0);
}

/// Keys over each tier's extremes: int limits, ±0.0, ±inf, the smallest
/// subnormal and huge magnitudes — the corners of the packed encoding.
SelectionKey extreme_key(Rng& rng) {
  constexpr std::int32_t kInts[] = {std::numeric_limits<std::int32_t>::min(),
                                    std::numeric_limits<std::int32_t>::min() + 1,
                                    -1,
                                    0,
                                    1,
                                    std::numeric_limits<std::int32_t>::max() - 1,
                                    std::numeric_limits<std::int32_t>::max()};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDoubles[] = {-kInf, -1e300, -1.5, -0.0, 0.0,
                                 std::numeric_limits<double>::denorm_min(),
                                 1.5, 1e300, kInf};
  auto pick_int = [&] {
    return kInts[rng.uniform(0, std::size(kInts) - 1)];
  };
  auto pick_double = [&] {
    return kDoubles[rng.uniform(0, std::size(kDoubles) - 1)];
  };
  SelectionKey k;
  k.critical_count = pick_int();
  k.global_delay = pick_double();
  k.local_delay = pick_double();
  k.branch = pick_int();
  k.f_min = pick_int();
  k.n_min = pick_int();
  k.f_max = pick_int();
  k.n_max = pick_int();
  k.neg_length = pick_double();
  return k;
}

/// Bit equality with −0.0 and +0.0 taken as one value.
bool same_bits(double a, double b) {
  return a == 0.0 ? b == 0.0
                  : std::bit_cast<std::uint64_t>(a) ==
                        std::bit_cast<std::uint64_t>(b);
}

// The index's packed word compare must order any two keys exactly as
// compare_selection does, and a key must read back as it was set.
TEST(SelectionIndex, PackedCompareMatchesCompareSelection) {
  const std::string na = "n2";
  const std::string nb = "n10";
  for (const CriteriaOrder order :
       {CriteriaOrder::kDelayFirst, CriteriaOrder::kAreaFirst}) {
    Rng rng(order == CriteriaOrder::kDelayFirst ? 7 : 8);
    for (int trial = 0; trial < 4000; ++trial) {
      SelectionKey ka = extreme_key(rng);
      // Half the pairs share most tiers, so later tiers decide too.
      SelectionKey kb = rng.uniform(0, 1) == 0 ? extreme_key(rng) : ka;
      if (rng.uniform(0, 1) == 0) kb.neg_length = extreme_key(rng).neg_length;
      if (rng.uniform(0, 3) == 0) kb.n_max = extreme_key(rng).n_max;
      // Same net (edge decides ties) or two nets (name decides ties).
      const bool one_net = rng.uniform(0, 1) == 0;
      const std::string& name_b = one_net ? na : nb;
      SelectionIndex index(order);
      const std::int32_t a = index.add(NetId{0}, 3, na);
      const std::int32_t b = index.add(NetId{one_net ? 0 : 1}, 5, name_b);
      index.set_key(a, ka);
      index.set_key(b, kb);
      const int c = compare_selection(ka, na, 3, kb, name_b, 5, order);
      ASSERT_NE(c, 0);
      ASSERT_EQ(index.top(), c < 0 ? a : b) << "trial " << trial;
      for (const auto& [slot, key] : {std::pair{a, ka}, std::pair{b, kb}}) {
        const SelectionKey back = index.key(slot);
        EXPECT_EQ(back, key);
        EXPECT_TRUE(same_bits(back.global_delay, key.global_delay));
        EXPECT_TRUE(same_bits(back.local_delay, key.local_delay));
        EXPECT_TRUE(same_bits(back.neg_length, key.neg_length));
      }
      EXPECT_EQ(index.nan_keys(), 0);
    }
  }
}

// set_density is set_key of the key with its density tiers replaced: the
// same key reads back, the same slot wins, and unchanged tiers leave the
// tree as it was.
TEST(SelectionIndex, SetDensityEqualsSetKeyOfPatchedKey) {
  const std::string na = "n1";
  const std::string nb = "n2";
  for (const CriteriaOrder order :
       {CriteriaOrder::kDelayFirst, CriteriaOrder::kAreaFirst}) {
    Rng rng(order == CriteriaOrder::kDelayFirst ? 17 : 18);
    for (int trial = 0; trial < 2000; ++trial) {
      const SelectionKey ka = extreme_key(rng);
      const SelectionKey kb = extreme_key(rng);
      const SelectionKey tiers = extreme_key(rng);
      SelectionKey patched = ka;
      patched.f_min = tiers.f_min;
      patched.n_min = tiers.n_min;
      patched.f_max = tiers.f_max;
      patched.n_max = tiers.n_max;
      SelectionIndex via_density(order);
      SelectionIndex via_key(order);
      for (SelectionIndex* index : {&via_density, &via_key}) {
        (void)index->add(NetId{0}, 1, na);
        (void)index->add(NetId{1}, 1, nb);
        index->set_key(0, ka);
        index->set_key(1, kb);
        (void)index->top();
      }
      via_density.set_density(0, tiers);
      via_key.set_key(0, patched);
      ASSERT_EQ(via_density.key(0), patched) << "trial " << trial;
      ASSERT_EQ(via_density.top(), via_key.top()) << "trial " << trial;
    }
  }
}

// A key holding a NaN takes compare_selection's path (the NaN tier ties),
// and reads back bit for bit.
TEST(SelectionIndex, NanKeysFallBackToCompareSelection) {
  const std::string n1 = "n1";
  const std::string n2 = "n2";
  SelectionKey nan_key;
  nan_key.global_delay = std::numeric_limits<double>::quiet_NaN();
  nan_key.f_min = 5;
  SelectionKey other = nan_key;
  other.global_delay = -1.0;
  other.f_min = -5;
  for (const CriteriaOrder order :
       {CriteriaOrder::kDelayFirst, CriteriaOrder::kAreaFirst}) {
    SelectionIndex index(order);
    const std::int32_t a = index.add(NetId{0}, 1, n2);
    const std::int32_t b = index.add(NetId{1}, 1, n1);
    index.set_key(a, other);
    index.set_key(b, nan_key);
    const int c = compare_selection(other, n2, 1, nan_key, n1, 1, order);
    EXPECT_EQ(index.top(), c < 0 ? a : b);
    EXPECT_EQ(index.nan_keys(), 1);
    EXPECT_TRUE(std::isnan(index.key(b).global_delay));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(index.key(b).global_delay),
              std::bit_cast<std::uint64_t>(nan_key.global_delay));
  }
}

// The root is the unique minimum, so slot numbering cannot matter: two
// indexes over the same candidates, added in different orders and fed the
// same re-keys, pick the same (net, edge) at every step.
TEST(SelectionIndex, PermutedSlotNumberingSameTopSequence) {
  const std::vector<std::string> names = {"n10", "n2", "q1", "n1", "n100"};
  for (const CriteriaOrder order :
       {CriteriaOrder::kDelayFirst, CriteriaOrder::kAreaFirst}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      std::vector<std::pair<std::int32_t, std::int32_t>> cands;  // net, edge
      for (std::int32_t n = 0; n < static_cast<std::int32_t>(names.size());
           ++n) {
        const auto edges = static_cast<std::int32_t>(rng.uniform(1, 12));
        for (std::int32_t e = 0; e < edges; ++e) cands.emplace_back(n, 2 * e);
      }
      const auto count = static_cast<std::int32_t>(cands.size());
      std::vector<std::int32_t> perm(static_cast<std::size_t>(count));
      for (std::int32_t i = 0; i < count; ++i) perm[static_cast<std::size_t>(i)] = i;
      for (std::int32_t i = count - 1; i > 0; --i) {
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(rng.uniform(0, i))]);
      }
      SelectionIndex plain(order);
      SelectionIndex permuted(order);
      std::vector<std::int32_t> plain_slot(static_cast<std::size_t>(count));
      std::vector<std::int32_t> permuted_slot(static_cast<std::size_t>(count));
      for (std::int32_t i = 0; i < count; ++i) {
        const auto& [n, e] = cands[static_cast<std::size_t>(i)];
        plain_slot[static_cast<std::size_t>(i)] =
            plain.add(NetId{n}, e, names[static_cast<std::size_t>(n)]);
      }
      for (const std::int32_t i : perm) {
        const auto& [n, e] = cands[static_cast<std::size_t>(i)];
        permuted_slot[static_cast<std::size_t>(i)] =
            permuted.add(NetId{n}, e, names[static_cast<std::size_t>(n)]);
      }
      auto same_top = [&] {
        const std::int32_t p = plain.top();
        const std::int32_t q = permuted.top();
        if (p < 0 || q < 0) return p == q;
        return plain.net(p) == permuted.net(q) &&
               plain.edge(p) == permuted.edge(q);
      };
      for (std::int32_t i = 0; i < count; ++i) {
        const SelectionKey k = random_key(rng);
        plain.set_key(plain_slot[static_cast<std::size_t>(i)], k);
        permuted.set_key(permuted_slot[static_cast<std::size_t>(i)], k);
      }
      for (std::int32_t step = 0; step < 300; ++step) {
        ASSERT_TRUE(same_top()) << "seed " << seed << " step " << step;
        const auto batch = static_cast<std::int32_t>(rng.uniform(1, 4));
        for (std::int32_t m = 0; m < batch; ++m) {
          const auto i =
              static_cast<std::size_t>(rng.uniform(0, count - 1));
          if (rng.uniform(0, 9) < 7) {
            const SelectionKey k = random_key(rng);
            if (!plain.live(plain_slot[i])) continue;  // removed for good
            plain.set_key(plain_slot[i], k);
            permuted.set_key(permuted_slot[i], k);
          } else {
            plain.remove(plain_slot[i]);
            permuted.remove(permuted_slot[i]);
          }
        }
      }
      ASSERT_TRUE(same_top());
    }
  }
}

// No key of a real route holds a NaN: the paper presets under the default
// options, the RC delay model and per-net budgets.
TEST(SelectionIndex, PaperRoutesNeverKeyNan) {
  Counter& nan_keys = MetricsRegistry::global().counter(
      "route.nan_keys", MetricScope::kNonDeterministic);
  for (const char* preset : {"C1P1", "C2P1", "C3P1"}) {
    for (int mode = 0; mode < 3; ++mode) {
      SCOPED_TRACE(std::string(preset) + " mode " + std::to_string(mode));
      Dataset design = make_dataset(preset);
      RouterOptions options;
      options.delay_model =
          mode == 1 ? DelayModel::kElmoreRC : DelayModel::kLumpedC;
      options.use_net_budgets = mode == 2;
      const std::int64_t before = nan_keys.value();
      GlobalRouter router(design.netlist, std::move(design.placement),
                          design.tech, design.constraints, options);
      (void)router.run();
      EXPECT_EQ(nan_keys.value(), before);
    }
  }
}

}  // namespace
}  // namespace bgr
