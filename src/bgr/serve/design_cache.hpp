#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "bgr/gen/generator.hpp"

namespace bgr::serve {

struct SessionResult;

/// Warm per-design caches for the serve daemon (DESIGN.md §12). The
/// production-common case is repeat/near-repeat submission of the same
/// design, so the cache is keyed by content hash of the design source and
/// has two levels:
///
///   - dataset level: the parsed (or preset-generated) Dataset, shared
///     read-only; a hit skips parsing, and every session copies the
///     dataset before routing because the router mutates its netlist
///     (feed-cell insertion).
///   - result level: the finished SessionResult keyed by design content
///     *and* the full option fingerprint; an exact re-submission skips
///     parse, graph construction and routing entirely, returning the
///     stored — hence trivially bit-identical — outcome.
///
/// Graph reuse happens at whole-run granularity through the result level:
/// a RoutingGraph is built against the post-assignment netlist (with
/// inserted feed cells), so it is only meaningful to reuse when every
/// option matches, which is exactly the result key.
///
/// Both levels are LRU-bounded and mutex-guarded; lookups that miss parse
/// under the lock, so a concurrent duplicate submission is guaranteed to
/// hit (second comer blocks, then finds the entry) — this is what makes
/// `serve.cache_hits` deterministic for a given request stream. Hits and
/// misses feed the serve.cache_* semantic counters.
class DesignCache {
 public:
  explicit DesignCache(std::size_t dataset_capacity = 32,
                       std::size_t result_capacity = 128);
  ~DesignCache();

  DesignCache(const DesignCache&) = delete;
  DesignCache& operator=(const DesignCache&) = delete;

  /// Content key of a design source. Text and presets live in disjoint
  /// key spaces (a preset name is not design text).
  [[nodiscard]] static std::uint64_t text_key(std::string_view text);
  [[nodiscard]] static std::uint64_t preset_key(const std::string& name);

  /// Parsed dataset for inline design text; parses at most once per
  /// content hash. Throws IoError on malformed text (a miss only).
  /// `source` labels parse diagnostics; `hit` (optional) reports whether
  /// the dataset came out of the cache.
  [[nodiscard]] std::shared_ptr<const Dataset> dataset_for_text(
      const std::string& text, const std::string& source,
      bool* hit = nullptr);
  /// Generated dataset for a named preset ("C1P1", ...). Throws on
  /// unknown names.
  [[nodiscard]] std::shared_ptr<const Dataset> dataset_for_preset(
      const std::string& name, bool* hit = nullptr);

  /// Result level; find_result returns nullptr on miss. Only completed
  /// (kDone) results may be stored.
  [[nodiscard]] std::shared_ptr<const SessionResult> find_result(
      std::uint64_t request_key);
  void store_result(std::uint64_t request_key,
                    std::shared_ptr<const SessionResult> result);

  /// Drops every entry of both levels (counted as evictions), returning
  /// usage() to the empty baseline.
  void clear();

  struct Stats {
    std::int64_t dataset_hits = 0;
    std::int64_t dataset_misses = 0;
    std::int64_t result_hits = 0;
    std::int64_t result_misses = 0;
    std::int64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Resident-size snapshot for the telemetry gauges. Byte figures are
  /// approximations (container payload estimates, not allocator truth) —
  /// good enough to watch the cache grow, wrong to bill against an RSS.
  /// Maintained incrementally: every insertion adds the same per-entry
  /// figure its eviction later subtracts, so the gauge returns to the
  /// empty baseline after full eviction instead of drifting.
  struct Usage {
    std::int64_t dataset_entries = 0;
    std::int64_t dataset_bytes = 0;
    std::int64_t result_entries = 0;
    std::int64_t result_bytes = 0;
  };
  [[nodiscard]] Usage usage() const;

 private:
  struct DatasetEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const Dataset> value;
    std::int64_t bytes = 0;  // accounted at insert, released at evict
  };
  struct ResultEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const SessionResult> value;
    std::int64_t bytes = 0;
  };
  using DatasetList = std::list<DatasetEntry>;
  using ResultList = std::list<ResultEntry>;

  std::shared_ptr<const Dataset> dataset_locked(
      std::uint64_t key, const std::function<Dataset()>& build, bool* hit);
  void evict_excess_locked();

  mutable std::mutex mutex_;
  std::size_t dataset_capacity_;
  std::size_t result_capacity_;
  DatasetList datasets_;  // most-recently-used first
  ResultList results_;
  Stats stats_;
  std::int64_t dataset_bytes_ = 0;  // totals mirror the lists exactly
  std::int64_t result_bytes_ = 0;
};

}  // namespace bgr::serve
