#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "bgr/timing/analyzer.hpp"

namespace bgr {

/// Maps a net's worst constraint slack to the cost-distance sink weight w_s
/// used by the steiner backend (DESIGN.md §16). `scale_ps` sets the slack
/// magnitude that counts as "comfortable" — callers pass the largest
/// constraint limit; a non-positive scale falls back to 1 ps.
///
///   slack = +inf / NaN  →  0        (unconstrained: pure wirelength)
///   slack > 0           →  1 / (1 + slack/scale)   (→ 0 as slack grows)
///   slack ≤ 0           →  min(1 − slack/scale, 8) (≥ 1, grows with the
///                                                    violation, capped)
///
/// Strictly monotone decreasing in slack until the cap, continuous at
/// slack = 0 (both branches give 1), and bounded so one hopeless net
/// cannot distort its tree into a pure shortest-path star.
[[nodiscard]] inline double slack_to_weight(double slack_ps, double scale_ps) {
  if (!std::isfinite(slack_ps)) return 0.0;
  const double scale = scale_ps > 0.0 ? scale_ps : 1.0;
  if (slack_ps <= 0.0) {
    return std::min(1.0 - slack_ps / scale, 8.0);
  }
  return 1.0 / (1.0 + slack_ps / scale);
}

/// Ordering of the heuristic tiers (§3.4 / §3.5): the initial routing and
/// the delay phases compare delay criteria first; the area-improvement
/// phase moves the density tiers right after C_d and compares Gl / LD last.
enum class CriteriaOrder {
  kDelayFirst,  // C_d, Gl, LD, density tiers, length
  kAreaFirst,   // C_d, density tiers, Gl, LD, length
};

/// Full per-edge selection key. The edge with the *smallest* key is deleted
/// — deleting it has the least fatal disadvantage. Density tier semantics:
///   branch      trunk edges (0) are preferred over branch edges (1);
///   f_min       C_m(c) − D_m(e): small ⇒ the edge runs over the channel's
///               forced-density maximum, delete before it can become forced;
///   n_min       NC_m(c) − ND_m(e): residual most-congested length;
///   f_max       C_M(c) − D_M(e): small ⇒ deletion attacks the congested
///               region directly;
///   n_max       NC_M(c) − ND_M(e);
///   neg_length  longer edges preferred (more wire removed).
struct SelectionKey {
  std::int32_t critical_count = 0;  // C_d(e)
  double global_delay = 0.0;        // Gl(e)
  double local_delay = 0.0;         // LD(e)
  std::int32_t branch = 0;
  std::int32_t f_min = 0;
  std::int32_t n_min = 0;
  std::int32_t f_max = 0;
  std::int32_t n_max = 0;
  double neg_length = 0.0;

  friend bool operator==(const SelectionKey&, const SelectionKey&) = default;
};

/// Lexicographic three-way comparison under the given tier order: negative
/// when `a` should be deleted in preference to `b`, positive when `b`
/// should, 0 for keys equal in every tier. The first tier holding a NaN
/// orders neither key first (0).
[[nodiscard]] inline int key_compare(const SelectionKey& a,
                                     const SelectionKey& b,
                                     CriteriaOrder order) {
  constexpr int kUnordered = 2;
  auto cmp_double = [](double x, double y) -> int {
    if (x < y) return -1;
    if (y < x) return 1;
    return x == y ? 0 : kUnordered;
  };
  auto cmp_delay_tail = [&](const SelectionKey& x, const SelectionKey& y,
                            bool with_cd) -> int {
    if (with_cd && x.critical_count != y.critical_count)
      return x.critical_count < y.critical_count ? -1 : 1;
    if (const int c = cmp_double(x.global_delay, y.global_delay); c != 0)
      return c;
    return cmp_double(x.local_delay, y.local_delay);
  };
  auto cmp_density = [](const SelectionKey& x, const SelectionKey& y) -> int {
    if (x.branch != y.branch) return x.branch < y.branch ? -1 : 1;
    if (x.f_min != y.f_min) return x.f_min < y.f_min ? -1 : 1;
    if (x.n_min != y.n_min) return x.n_min < y.n_min ? -1 : 1;
    if (x.f_max != y.f_max) return x.f_max < y.f_max ? -1 : 1;
    if (x.n_max != y.n_max) return x.n_max < y.n_max ? -1 : 1;
    return 0;
  };

  int c = 0;
  if (order == CriteriaOrder::kDelayFirst) {
    c = cmp_delay_tail(a, b, /*with_cd=*/true);
    if (c == 0) c = cmp_density(a, b);
  } else {
    if (a.critical_count != b.critical_count) {
      c = a.critical_count < b.critical_count ? -1 : 1;
    } else {
      c = cmp_density(a, b);
      if (c == 0) c = cmp_delay_tail(a, b, /*with_cd=*/false);
    }
  }
  if (c == 0) c = cmp_double(a.neg_length, b.neg_length);
  return c == kUnordered ? 0 : c;
}

/// Returns true when `a` should be deleted in preference to `b`.
[[nodiscard]] inline bool key_less(const SelectionKey& a, const SelectionKey& b,
                                   CriteriaOrder order) {
  return key_compare(a, b, order) < 0;
}

}  // namespace bgr
