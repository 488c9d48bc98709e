#pragma once

#include <iosfwd>
#include <string>

#include "bgr/obs/json.hpp"
#include "bgr/obs/metrics.hpp"

namespace bgr {

/// Version stamp of the run-report JSON layout. Bump when a consumer
/// (tools/check_run_report.py, bench trajectory scripts) would
/// misinterpret an older/newer document.
inline constexpr std::int64_t kRunReportSchemaVersion = 1;

/// Machine-readable record of one run: a versioned JSON document with
/// named top-level sections. The layout contract consumed by
/// tools/check_run_report.py:
///
///   - "schema_version" and "kind" are always present;
///   - everything is deterministic (bit-identical across `--threads N`)
///     EXCEPT the "run" section, any section or phase sub-object named
///     "wall", and "metrics.nondeterministic";
///   - add_metrics() fills "metrics" with the registry split by scope.
///
/// Both bgr_route (`--metrics-out`) and the BENCH_*.json emitters build
/// their documents through this class so the perf trajectory shares one
/// schema.
class RunReport {
 public:
  /// `kind` identifies the producer ("bgr_route", "bench.scale", ...).
  explicit RunReport(std::string kind);

  [[nodiscard]] JsonValue& root() { return root_; }
  [[nodiscard]] const JsonValue& root() const { return root_; }

  /// Top-level object section, created on first use (insertion order is
  /// serialization order).
  [[nodiscard]] JsonValue& section(std::string_view name) {
    return root_[name];
  }

  /// Fills the "metrics" section from a registry (semantic and
  /// nondeterministic sub-objects).
  void add_metrics(const MetricsRegistry& registry) {
    root_.set("metrics", registry.to_json());
  }

  void write(std::ostream& os) const;
  void save(const std::string& path) const;

 private:
  JsonValue root_;
};

}  // namespace bgr
