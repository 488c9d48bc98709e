#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bgr/obs/metrics.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::int32_t SpanLog::add(std::string name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::string id) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, std::move(id)});
  return static_cast<std::int32_t>(spans_.size()) - 1;
}

std::int32_t SpanLog::open(std::string name, std::int32_t parent,
                           std::string id) {
  const std::int64_t t = now_ns();
  return add(std::move(name), t, -1, parent, std::move(id));
}

void SpanLog::close(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::vector<std::int32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::int32_t c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, s.start_ns);
      const std::int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, double> SpanLog::self_seconds_under(
    std::int32_t root) const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Parents always precede their children in the log, so a walk up the
    // parent chain decides membership.
    std::int32_t at = static_cast<std::int32_t>(i);
    while (at > root) at = spans_[static_cast<std::size_t>(at)].parent;
    if (at == root) out[spans_[i].name] += ns_to_s(self[i]);
  }
  return out;
}

std::vector<std::string> SpanLog::containment_errors() const {
  std::vector<std::string> errors;
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) {
      errors.push_back("span " + s.name + " [" + s.id + "] never closed");
      continue;
    }
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      errors.push_back("span " + s.name + " [" + s.id + "] leaves parent " +
                       p.name + " [" + p.id + "]");
    }
  }
  return errors;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void SpanLog::save(const std::string& path,
                   const std::map<std::string, std::string>& labels) const {
  std::ofstream os(path);
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += ns_to_s(self[i]);
  }
  os << "{\"labels\": {";
  bool first = true;
  for (const auto& [k, v] : labels) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  os << "},\n \"self_s\": {";
  first = true;
  for (const auto& [k, v] : by_name) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  os << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": " << json_string(s.name)
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"id\": " << json_string(s.id)
       << ", \"self_ns\": " << self[i] << "}";
  }
  os << "\n]}\n";
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot snap;
  const bgr::MetricsRegistry& registry = bgr::MetricsRegistry::global();
  for (const auto& sample : registry.counter_samples()) {
    snap.values[sample.name] = sample.value;
    snap.semantic[sample.name] = sample.scope == bgr::MetricScope::kSemantic;
  }
  for (const auto& sample : registry.histogram_samples()) {
    if (sample.name == "channel.tracks") {
      snap.values["channel.tracks"] = sample.sum;
      snap.semantic["channel.tracks"] =
          sample.scope == bgr::MetricScope::kSemantic;
    }
  }
  return snap;
}

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& before) const {
  CounterSnapshot out = *this;
  for (auto& [name, value] : out.values) value -= before.get(name);
  return out;
}

std::int64_t CounterSnapshot::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

std::vector<std::string> CounterSnapshot::semantic_diff(
    const CounterSnapshot& other) const {
  std::vector<std::string> diffs;
  for (const auto& [name, value] : values) {
    const auto it = semantic.find(name);
    if (it == semantic.end() || !it->second) continue;
    const std::int64_t theirs = other.get(name);
    if (value != theirs) {
      diffs.push_back(name + ": " + std::to_string(value) + " vs " +
                      std::to_string(theirs));
    }
  }
  return diffs;
}

void save_trace(const SpanLog& log, const RunOptions& options,
                const CounterSnapshot& counters, Result& result) {
  if (options.out_dir.empty()) return;
  std::map<std::string, std::string> labels;
  for (const auto& [name, semantic] : counters.semantic) {
    labels["counter." + name] =
        semantic ? "semantic: repeats exactly for one seed"
                 : "nondeterministic: schedule-driven, excluded from the "
                   "repeat check";
  }
  labels["workload"] = options.workload;
  labels["seed"] = std::to_string(options.seed);
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  log.save(path, labels);
  result.note("trace written to " + path);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics[name] = {value, unit};
}

void Result::fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

std::string Result::json_line() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct && failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(metric.value) << ", \"unit\": "
       << json_string(metric.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void report_counters(const CounterSnapshot& delta, Result& result) {
  // Score-cache misses are key computations; hits are reuses. Lookups
  // (their sum) is the base of both ratios below.
  const auto misses = static_cast<double>(delta.get("route.score_cache_miss"));
  const auto hits = static_cast<double>(delta.get("route.score_cache_hit"));
  const double lookups = misses + hits;
  result.set("route.key_computations", misses, "count");
  result.set("route.key_lookups", lookups, "count");
  result.set("route.key_reuse_ratio", ratio(hits, lookups), "ratio");
  result.set("route.lookups_per_deletion",
             ratio(lookups, static_cast<double>(
                                delta.get("route.deleted_edges"))),
             "ratio");
  for (const char* name :
       {"route.deleted_edges", "route.reroutes", "route.graphs_built",
        "path.searches", "path.pops", "path.cache_hits", "path.cone_repairs",
        "path.buckets_touched", "sta.incremental_updates",
        "sta.dirty_vertices", "sta.full_sweeps", "sta.full_vertices",
        "shard.components", "shard.commits", "shard.fallbacks",
        "exec.regions", "exec.chunks", "channel.segments",
        "channel.tracks"}) {
    result.set(name, static_cast<double>(delta.get(name)), "count");
  }
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"gen.generate_s", "s"},
      {"io.write_design_s", "s"},
      {"io.parse_s", "s"},
      {"io.write_route_s", "s"},
      {"route.construct_s", "s"},
      {"route.run_s", "s"},
      {"route.build_s", "s"},
      {"route.initial_s", "s"},
      {"route.recover_s", "s"},
      {"route.improve_delay_s", "s"},
      {"route.improve_area_s", "s"},
      {"route.key_computations", "count"},
      {"route.key_lookups", "count"},
      {"route.key_reuse_ratio", "ratio"},
      {"route.lookups_per_deletion", "ratio"},
      {"route.deleted_edges", "count"},
      {"route.reroutes", "count"},
      {"route.graphs_built", "count"},
      {"route.rss_delta_mb", "MB"},
      {"path.searches", "count"},
      {"path.pops", "count"},
      {"path.cache_hits", "count"},
      {"path.cone_repairs", "count"},
      {"path.buckets_touched", "count"},
      {"sta.incremental_updates", "count"},
      {"sta.dirty_vertices", "count"},
      {"sta.full_sweeps", "count"},
      {"sta.full_vertices", "count"},
      {"shard.components", "count"},
      {"shard.commits", "count"},
      {"shard.fallbacks", "count"},
      {"exec.regions", "count"},
      {"exec.chunks", "count"},
      {"channel.run_s", "s"},
      {"channel.segments", "count"},
      {"channel.tracks", "count"},
      {"verify.run_s", "s"},
      {"verify.errors", "count"},
      {"quality.violations", "count"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p90_ms", "ms"},
      {"serve.service_p50_ms", "ms"},
      {"serve.service_p90_ms", "ms"},
      {"serve.dataset_hits", "count"},
      {"serve.dataset_misses", "count"},
      {"serve.result_hits", "count"},
      {"serve.result_misses", "count"},
      {"serve.evictions", "count"},
      {"flow.other_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

}  // namespace perfbench
