#pragma once

// Shared pieces of the repo benchmark: run options, the span recorder the
// traced runs use, counter snapshots, quantiles and the result document.
// Everything here observes the router from outside: spans wrap the public
// calls into each layer, counters are read from MetricsRegistry::global()
// around those calls.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its span file
};

/// Workload seed whose derived generator seeds reproduce the committed 10k
/// preset (9410): a preset's generator seed is seed * 100 + (its committed
/// seed mod 100).
inline constexpr std::uint64_t kDefaultSeed = 94;

[[nodiscard]] inline std::uint64_t derived_seed(std::uint64_t workload_seed,
                                                std::uint64_t preset_seed) {
  return workload_seed * 100 + preset_seed % 100;
}

/// Nanoseconds on the steady clock since the first call.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// In-memory span recorder. Only traced runs record spans; they stay in
/// memory and are written once, at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(), -1 = root
    std::string id;            // design name or job id
  };

  /// Records a finished span and returns its index.
  std::int32_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent, std::string id);
  /// Opens a span now; close() stamps its end.
  std::int32_t open(std::string name, std::int32_t parent, std::string id);
  void close(std::int32_t span);

  /// Self time of every span: its duration minus the union of its
  /// children's intervals (children may overlap, e.g. concurrent jobs).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Sum of self time by span name over the spans descending from `root`
  /// (root included).
  [[nodiscard]] std::map<std::string, double> self_seconds_under(
      std::int32_t root) const;
  /// Spans whose interval is not inside their parent's, or that never
  /// closed. Empty when the log is consistent.
  [[nodiscard]] std::vector<std::string> containment_errors() const;

  /// Writes the spans plus the per-name self-time totals as JSON.
  void save(const std::string& path,
            const std::map<std::string, std::string>& labels) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span in `log` (when non-null) for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::int32_t parent,
             std::string id = {})
      : log_(log),
        index_(log != nullptr ? log->open(std::move(name), parent,
                                          std::move(id))
                              : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Name → value of every registered counter, plus the channel track total
/// (the `channel.tracks` histogram's sum). `semantic` lists the names the
/// registry scopes as deterministic.
struct CounterSnapshot {
  std::map<std::string, std::int64_t> values;
  std::map<std::string, bool> semantic;

  [[nodiscard]] static CounterSnapshot take();
  /// this − before, by name.
  [[nodiscard]] CounterSnapshot minus(const CounterSnapshot& before) const;
  [[nodiscard]] std::int64_t get(const std::string& name) const;
  /// Semantic counters whose value differs from `other`'s, as
  /// "name: a vs b" lines.
  [[nodiscard]] std::vector<std::string> semantic_diff(
      const CounterSnapshot& other) const;
};

/// Linear-interpolation quantile (q in [0,1]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set of this process so far, MB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set, MB.
[[nodiscard]] double current_rss_mb();

/// The result document: the last stdout line of a run.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Human-readable diagnostics printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);  // correctness failure, not an op
  void note(const std::string& line) { notes.push_back(line); }
  [[nodiscard]] std::string json_line() const;
};

/// Writes a traced run's spans to <out_dir>/trace-<workload>-<seed>.json
/// (nothing when out_dir is empty), labelled with the workload, the seed
/// and every counter's determinism scope.
void save_trace(const SpanLog& log, const RunOptions& options,
                const CounterSnapshot& counters, Result& result);

/// Sets the counter-derived per-layer metrics (route keys, path search,
/// STA, shards, exec, channel) from one pass's counter deltas.
void report_counters(const CounterSnapshot& delta, Result& result);

/// Safe ratio (0 when the base is 0).
[[nodiscard]] inline double ratio(double part, double base) {
  return base != 0.0 ? part / base : 0.0;
}

// Workload entry points (flow.cpp, serve_loop.cpp).
void run_flow_workload(const RunOptions& options, Result& result);
void run_serve_workload(const RunOptions& options, Result& result);

/// Every per-layer metric name with its unit, in BENCHMARK.json order; a
/// traced run reports each (0 where the workload does not exercise it).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

}  // namespace perfbench
