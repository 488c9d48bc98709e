#include "bgr/route/selection_index.hpp"

#include <utility>

#include "bgr/common/natural_order.hpp"

namespace bgr {

int compare_selection(const SelectionKey& ka, const std::string& na,
                      std::int32_t ea, const SelectionKey& kb,
                      const std::string& nb, std::int32_t eb,
                      CriteriaOrder order) {
  if (const int c = key_compare(ka, kb, order); c != 0) return c;
  if (&na != &nb) {  // one net's candidates share one name string
    if (natural_less(na, nb)) return -1;
    if (natural_less(nb, na)) return 1;
  }
  return ea < eb ? -1 : (eb < ea ? 1 : 0);
}

void SelectionIndex::clear(CriteriaOrder order) {
  order_ = order;
  entries_.clear();
  live_ = 0;
  nan_keys_ = 0;
  rebuild_ = true;
}

std::int32_t SelectionIndex::add(NetId net, std::int32_t edge,
                                 const std::string& name) {
  Entry e;
  e.words = pack(SelectionKey{});
  e.name = &name;
  e.net = net;
  e.edge = edge;
  entries_.push_back(e);
  rebuild_ = true;
  return static_cast<std::int32_t>(entries_.size()) - 1;
}

void SelectionIndex::remove(std::int32_t slot) {
  Entry& e = entries_[static_cast<std::size_t>(slot)];
  if (!e.live) return;
  e.live = false;
  --live_;
  mark(slot);
}

bool SelectionIndex::before(std::int32_t a, std::int32_t b) const {
  const Entry& x = entries_[static_cast<std::size_t>(a)];
  const Entry& y = entries_[static_cast<std::size_t>(b)];
  if (!x.nan && !y.nan) {
    for (std::size_t i = 0; i < x.words.size(); ++i) {
      if (x.words[i] != y.words[i]) return x.words[i] < y.words[i];
    }
  }
  const int c = compare_selection(key(a), *x.name, x.edge, key(b), *y.name,
                                  y.edge, order_);
  return c != 0 ? c < 0 : x.net.index() < y.net.index();
}

std::int32_t SelectionIndex::winner(std::int32_t a, std::int32_t b) const {
  if (a < 0) return b;
  if (b < 0) return a;
  return before(b, a) ? b : a;
}

void SelectionIndex::build() {
  leaf_base_ = 1;
  while (leaf_base_ < entries_.size()) leaf_base_ *= 2;
  tree_.assign(2 * leaf_base_, -1);
  touched_.assign(2 * leaf_base_, 0);
  pending_.clear();
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    tree_[leaf_base_ + s] = entries_[s].live ? static_cast<std::int32_t>(s) : -1;
  }
  for (std::size_t node = leaf_base_ - 1; node >= 1; --node) {
    tree_[node] = winner(tree_[2 * node], tree_[2 * node + 1]);
  }
  rebuild_ = false;
}

std::int32_t SelectionIndex::top() {
  if (rebuild_) {
    build();
  } else if (!pending_.empty()) {
    for (const std::size_t node : pending_) {
      const std::size_t s = node - leaf_base_;
      tree_[node] = entries_[s].live ? static_cast<std::int32_t>(s) : -1;
    }
    // All leaves sit on one level, so the touched set climbs one level
    // per pass and every parent sees already-final children.
    std::vector<std::size_t>& parents = scratch_;
    while (pending_.front() > 1) {
      parents.clear();
      for (const std::size_t node : pending_) {
        touched_[node] = 0;
        const std::size_t p = node / 2;
        if (touched_[p] == 0) {
          touched_[p] = 1;
          parents.push_back(p);
        }
      }
      for (const std::size_t p : parents) {
        tree_[p] = winner(tree_[2 * p], tree_[2 * p + 1]);
      }
      std::swap(pending_, parents);
    }
    for (const std::size_t node : pending_) touched_[node] = 0;
    pending_.clear();
  }
  return tree_[1];
}

}  // namespace bgr
