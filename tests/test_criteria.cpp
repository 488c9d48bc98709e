#include "bgr/route/criteria.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace bgr {
namespace {

SelectionKey base_key() {
  SelectionKey k;
  k.critical_count = 0;
  k.global_delay = 0.0;
  k.local_delay = 0.0;
  k.branch = 0;
  k.f_min = 5;
  k.n_min = 5;
  k.f_max = 5;
  k.n_max = 5;
  k.neg_length = -10.0;
  return k;
}

TEST(Criteria, CriticalCountDominatesDelayFirst) {
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.critical_count = 0;
  b.critical_count = 1;
  a.global_delay = 100.0;  // otherwise much worse
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kDelayFirst));
  EXPECT_FALSE(key_less(b, a, CriteriaOrder::kDelayFirst));
}

TEST(Criteria, GlobalDelayBeforeLocalDelay) {
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.global_delay = 0.1;
  b.global_delay = 0.2;
  a.local_delay = 99.0;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kDelayFirst));
}

TEST(Criteria, TrunkPreferredOverBranch) {
  SelectionKey trunk = base_key();
  SelectionKey branch = base_key();
  branch.branch = 1;
  branch.f_min = 0;  // otherwise more attractive
  EXPECT_TRUE(key_less(trunk, branch, CriteriaOrder::kDelayFirst));
}

TEST(Criteria, DensityTierOrder) {
  // f_min before n_min before f_max before n_max.
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.f_min = 1;
  b.f_min = 2;
  a.n_min = 9;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kDelayFirst));
  a = base_key();
  b = base_key();
  a.n_min = 1;
  b.n_min = 2;
  a.f_max = 9;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kDelayFirst));
  a = base_key();
  b = base_key();
  a.f_max = 1;
  b.f_max = 2;
  a.n_max = 9;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kDelayFirst));
}

TEST(Criteria, LongerEdgeBreaksFinalTie) {
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.neg_length = -20.0;  // longer edge
  b.neg_length = -10.0;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kDelayFirst));
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kAreaFirst));
}

TEST(Criteria, AreaOrderPutsDensityBeforeGl) {
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.f_min = 1;         // better density
  a.global_delay = 5;  // worse Gl
  b.f_min = 2;
  b.global_delay = 0;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kAreaFirst));
  EXPECT_FALSE(key_less(a, b, CriteriaOrder::kDelayFirst));
}

TEST(Criteria, AreaOrderStillChecksCdFirst) {
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.critical_count = 1;  // fatal
  a.f_min = 0;           // best density
  b.critical_count = 0;
  EXPECT_TRUE(key_less(b, a, CriteriaOrder::kAreaFirst));
}

TEST(Criteria, AreaOrderComparesGlLdLast) {
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.global_delay = 0.5;
  b.global_delay = 1.0;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kAreaFirst));
  b.global_delay = 0.5;
  a.local_delay = 1.0;
  b.local_delay = 2.0;
  EXPECT_TRUE(key_less(a, b, CriteriaOrder::kAreaFirst));
}

TEST(Criteria, EqualKeysNotLess) {
  const SelectionKey a = base_key();
  const SelectionKey b = base_key();
  EXPECT_FALSE(key_less(a, b, CriteriaOrder::kDelayFirst));
  EXPECT_FALSE(key_less(b, a, CriteriaOrder::kDelayFirst));
  EXPECT_FALSE(key_less(a, b, CriteriaOrder::kAreaFirst));
}

TEST(Criteria, StrictWeakOrderingOnSamples) {
  // Exhaustive antisymmetry check over a small lattice of keys.
  std::vector<SelectionKey> keys;
  for (int cd : {0, 1}) {
    for (double gl : {0.0, 1.0}) {
      for (int branch : {0, 1}) {
        for (int fm : {0, 2}) {
          for (double len : {-5.0, -1.0}) {
            SelectionKey k = base_key();
            k.critical_count = cd;
            k.global_delay = gl;
            k.branch = branch;
            k.f_min = fm;
            k.neg_length = len;
            keys.push_back(k);
          }
        }
      }
    }
  }
  for (const auto order : {CriteriaOrder::kDelayFirst, CriteriaOrder::kAreaFirst}) {
    for (const auto& a : keys) {
      EXPECT_FALSE(key_less(a, a, order));
      for (const auto& b : keys) {
        if (key_less(a, b, order)) {
          EXPECT_FALSE(key_less(b, a, order));
        }
        EXPECT_EQ(key_compare(a, b, order), -key_compare(b, a, order));
        EXPECT_EQ(key_compare(a, b, order) == 0, a == b);
        for (const auto& c : keys) {
          if (key_less(a, b, order) && key_less(b, c, order)) {
            EXPECT_TRUE(key_less(a, c, order));
          }
        }
      }
    }
  }
}

TEST(Criteria, KeyCompareTreatsNanTierAsUnordered) {
  // A NaN delay tier orders neither key first, whatever the later tiers
  // say: both directions compare 0, as two key_less calls always did.
  SelectionKey a = base_key();
  SelectionKey b = base_key();
  a.global_delay = std::numeric_limits<double>::quiet_NaN();
  b.f_min = a.f_min + 1;
  for (const auto order : {CriteriaOrder::kDelayFirst, CriteriaOrder::kAreaFirst}) {
    EXPECT_FALSE(key_less(a, b, order) && key_less(b, a, order));
  }
  EXPECT_EQ(key_compare(a, b, CriteriaOrder::kDelayFirst), 0);
  EXPECT_EQ(key_compare(b, a, CriteriaOrder::kDelayFirst), 0);
  // Under kAreaFirst the density tiers come first and decide.
  EXPECT_LT(key_compare(a, b, CriteriaOrder::kAreaFirst), 0);
  EXPECT_GT(key_compare(b, a, CriteriaOrder::kAreaFirst), 0);
}

}  // namespace
}  // namespace bgr
