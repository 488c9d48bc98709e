// Randomized differential battery for SelectionIndex (DESIGN.md §5): after
// every re-key and removal, under either tier order, the index's top() must
// equal the brute-force argmin of a first-wins scan under the exact total order
// (key, natural net name, edge). Keys are drawn from tiny domains so exact
// key ties, across nets and across edges of one net, are the common case.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bgr/common/natural_order.hpp"
#include "bgr/common/rng.hpp"
#include "bgr/route/criteria.hpp"
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

}  // namespace
}  // namespace bgr
