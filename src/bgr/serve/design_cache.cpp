#include "bgr/serve/design_cache.hpp"

#include <sstream>
#include <utility>

#include "bgr/common/hash.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/serve/session.hpp"

namespace bgr::serve {

namespace {

/// serve.cache_* are semantic: for a given request stream the hit/miss
/// pattern is a pure function of the submitted contents (lookups
/// serialize under the cache mutex and a miss inserts before unlocking,
/// so a duplicate always hits regardless of scheduling).
struct CacheMetrics {
  Counter& hits = MetricsRegistry::global().counter("serve.cache_hits",
                                                    MetricScope::kSemantic);
  Counter& misses = MetricsRegistry::global().counter("serve.cache_misses",
                                                      MetricScope::kSemantic);
};

CacheMetrics& cache_metrics() {
  static CacheMetrics* const m = new CacheMetrics();
  return *m;
}

std::int64_t approx_dataset_bytes(const Dataset& dataset) {
  // Per-cell / per-net payload estimate: name + ids + terminal vectors.
  // Deliberately coarse — the gauge tracks growth, not exact residency.
  constexpr std::int64_t kPerCell = 64;
  constexpr std::int64_t kPerNet = 96;
  return static_cast<std::int64_t>(sizeof(Dataset)) +
         static_cast<std::int64_t>(dataset.name.size()) +
         kPerCell * dataset.netlist.cell_count() +
         kPerNet * dataset.netlist.net_count() +
         static_cast<std::int64_t>(dataset.constraints.size() *
                                   sizeof(PathConstraint));
}

std::int64_t approx_result_bytes(const SessionResult& result) {
  return static_cast<std::int64_t>(sizeof(SessionResult)) +
         static_cast<std::int64_t>(result.route_text.size()) +
         static_cast<std::int64_t>(result.digest.size()) +
         static_cast<std::int64_t>(result.error.size());
}

}  // namespace

DesignCache::DesignCache(std::size_t dataset_capacity,
                         std::size_t result_capacity)
    : dataset_capacity_(std::max<std::size_t>(dataset_capacity, 1)),
      result_capacity_(std::max<std::size_t>(result_capacity, 1)) {
  // Register serve.cache_* eagerly so an untouched cache still reports
  // schema-complete (all-zero) counters.
  (void)cache_metrics();
}

DesignCache::~DesignCache() = default;

std::uint64_t DesignCache::text_key(std::string_view text) {
  Fingerprint fp;
  fp.mix(std::string_view("text"));
  fp.mix(static_cast<std::uint64_t>(text.size()));
  fp.mix(text);
  return fp.value();
}

std::uint64_t DesignCache::preset_key(const std::string& name) {
  Fingerprint fp;
  fp.mix(std::string_view("preset"));
  fp.mix(static_cast<std::uint64_t>(name.size()));
  fp.mix(name);
  return fp.value();
}

std::shared_ptr<const Dataset> DesignCache::dataset_locked(
    std::uint64_t key, const std::function<Dataset()>& build, bool* hit) {
  if (hit != nullptr) *hit = false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = datasets_.begin(); it != datasets_.end(); ++it) {
    if (it->key == key) {
      datasets_.splice(datasets_.begin(), datasets_, it);  // touch LRU
      ++stats_.dataset_hits;
      cache_metrics().hits.add(1);
      if (hit != nullptr) *hit = true;
      return datasets_.front().value;
    }
  }
  ++stats_.dataset_misses;
  cache_metrics().misses.add(1);
  // Build under the lock: parsing serializes, but a concurrent duplicate
  // then deterministically hits instead of racing to a second parse.
  auto value = std::make_shared<const Dataset>(build());
  DatasetEntry entry;
  entry.key = key;
  entry.value = value;
  entry.bytes = approx_dataset_bytes(*value);
  dataset_bytes_ += entry.bytes;
  datasets_.push_front(std::move(entry));
  evict_excess_locked();
  return value;
}

void DesignCache::evict_excess_locked() {
  // Eviction releases exactly the bytes insertion charged (the figure is
  // stored on the entry, never recomputed), so usage() cannot drift.
  while (datasets_.size() > dataset_capacity_) {
    dataset_bytes_ -= datasets_.back().bytes;
    datasets_.pop_back();
    ++stats_.evictions;
  }
  while (results_.size() > result_capacity_) {
    result_bytes_ -= results_.back().bytes;
    results_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const Dataset> DesignCache::dataset_for_text(
    const std::string& text, const std::string& source, bool* hit) {
  return dataset_locked(
      text_key(text),
      [&] {
        std::istringstream is(text);
        return read_design(is, source);
      },
      hit);
}

std::shared_ptr<const Dataset> DesignCache::dataset_for_preset(
    const std::string& name, bool* hit) {
  return dataset_locked(preset_key(name), [&] { return make_dataset(name); },
                        hit);
}

std::shared_ptr<const SessionResult> DesignCache::find_result(
    std::uint64_t request_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = results_.begin(); it != results_.end(); ++it) {
    if (it->key == request_key) {
      results_.splice(results_.begin(), results_, it);
      ++stats_.result_hits;
      cache_metrics().hits.add(1);
      return results_.front().value;
    }
  }
  ++stats_.result_misses;
  return nullptr;
}

void DesignCache::store_result(std::uint64_t request_key,
                               std::shared_ptr<const SessionResult> result) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : results_) {
    if (entry.key == request_key) return;  // first result wins
  }
  ResultEntry entry;
  entry.key = request_key;
  entry.value = std::move(result);
  entry.bytes = approx_result_bytes(*entry.value);
  result_bytes_ += entry.bytes;
  results_.push_front(std::move(entry));
  evict_excess_locked();
}

void DesignCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.evictions +=
      static_cast<std::int64_t>(datasets_.size() + results_.size());
  datasets_.clear();
  results_.clear();
  dataset_bytes_ = 0;
  result_bytes_ = 0;
}

DesignCache::Stats DesignCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

DesignCache::Usage DesignCache::usage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Usage usage;
  usage.dataset_entries = static_cast<std::int64_t>(datasets_.size());
  usage.dataset_bytes = dataset_bytes_;
  usage.result_entries = static_cast<std::int64_t>(results_.size());
  usage.result_bytes = result_bytes_;
  return usage;
}

}  // namespace bgr::serve
