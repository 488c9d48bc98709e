// `serve` workload: a closed loop of three clients, each with one job
// outstanding, through an in-process JobScheduler and DesignCache that live
// for the whole run; the cache is cleared at the start of every round. Jobs carry inline design text and ask for
// verification; timing is taken from outside: submit() → started → done.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <iterator>
#include <mutex>
#include <sstream>

#include "bgr/gen/generator.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/serve/design_cache.hpp"
#include "bgr/serve/scheduler.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using bgr::serve::DesignCache;
using bgr::serve::JobRequest;
using bgr::serve::JobScheduler;

constexpr int kClients = 3;

/// Design sizes of one round (target logic cells; a design's final cell
/// count adds pads and feed cells, roughly ×1.4). Only the generator seed
/// follows the workload seed, so every seed routes the same size mix.
struct DesignSize {
  std::int32_t target_cells;
  std::int32_t rows;
  std::int32_t levels;
  std::int32_t constraints;
};
constexpr DesignSize kSizes[] = {
    {200, 5, 6, 10},  {250, 6, 7, 12},  {300, 6, 7, 14},
    {350, 7, 8, 16},  {400, 7, 8, 18},  {450, 8, 9, 20},
    {500, 8, 9, 22},  {550, 9, 10, 24}, {600, 9, 10, 26},
};
constexpr std::uint64_t kServeSeedBase = 50;  // derived seeds S*100+50+i

/// The five jobs sent per design: the cold run, three re-submissions with
/// other outcome-affecting options (design-cache hits) and one exact
/// repeat of the cold run (a result-cache hit).
enum Variant { kCold, kRc, kUnconstrained, kNoImprove, kRepeat, kVariants };
constexpr const char* kExpectedCache[kVariants] = {
    "miss", "design-hit", "design-hit", "design-hit", "result-hit"};

struct ServeDesign {
  std::string name;
  std::string text;
  std::int32_t constraints = 0;
};

struct PlannedJob {
  std::int32_t client = 0;
  std::int32_t design = 0;
  Variant variant = kCold;
  JobRequest request;
};

JobRequest make_request(const ServeDesign& design, Variant variant,
                        const std::string& id) {
  JobRequest request;
  request.id = id;
  request.design_text = design.text;
  request.verify = true;
  switch (variant) {
    case kRc: request.options.delay_model = bgr::DelayModel::kElmoreRC; break;
    case kUnconstrained: request.constrained = false; break;
    case kNoImprove:
      request.options.enable_violation_recovery = false;
      request.options.enable_delay_improvement = false;
      request.options.enable_area_improvement = false;
      break;
    default: break;
  }
  return request;
}

/// Design d belongs to client d % kClients, which sends its five jobs in
/// order; so every re-submission follows its cold run's completion and
/// the cache dispositions are fixed by the plan, not by the schedule.
std::vector<PlannedJob> plan_jobs(const std::vector<ServeDesign>& designs) {
  std::vector<PlannedJob> jobs;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    for (int v = 0; v < kVariants; ++v) {
      PlannedJob job;
      job.client = static_cast<std::int32_t>(d % kClients);
      job.design = static_cast<std::int32_t>(d);
      job.variant = static_cast<Variant>(v);
      job.request = make_request(designs[d], job.variant == kRepeat
                                                 ? kCold
                                                 : job.variant,
                                 "j" + std::to_string(jobs.size()));
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

struct JobRecord {
  std::int64_t submit_ns = 0;
  std::int64_t started_ns = -1;
  std::int64_t done_ns = -1;
  std::string status;  // terminal event name
  std::string digest;
  std::string cache;
  double delay_ps = 0.0;
  double area_mm2 = 0.0;
  double length_um = 0.0;
  std::int64_t violated = 0;
  std::int64_t verify_errors = -1;
};

struct Round {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<JobRecord> jobs;
  CounterSnapshot counters;
  DesignCache::Stats cache;
  /// Session phase wall sums from the scheduler's latency windows, s.
  std::map<std::string, double> phase_s;
  /// RouteOutcome phase seconds summed over the round's routed jobs.
  std::map<std::string, double> route_phase_s;
  [[nodiscard]] double seconds() const { return ns_to_s(end_ns - start_ns); }
};

/// Where the scheduler's runner threads deliver events and the client loop
/// waits for completions. Lives as long as the scheduler.
struct EventSink {
  std::mutex mutex;
  std::condition_variable finished_cv;
  std::deque<std::int32_t> finished;       // guarded by mutex
  std::vector<JobRecord>* jobs = nullptr;  // current round; guarded by mutex

  void on_event(const bgr::JsonValue& event);
};

void EventSink::on_event(const bgr::JsonValue& event) {
  const std::int64_t t = now_ns();
  try {
    const std::string& kind = event.at("event").as_string();
    if (kind == "accepted" || kind == "rejected") return;
    const std::string& id = event.at("id").as_string();
    const auto index = static_cast<std::size_t>(std::stol(id.substr(1)));
    std::lock_guard<std::mutex> lock(mutex);
    JobRecord& job = jobs->at(index);
    if (kind == "started") {
      job.started_ns = t;
      return;
    }
    job.done_ns = t;
    job.status = kind;
    if (kind == "done") {
      const bgr::JsonValue& r = event.at("result");
      job.digest = r.at("digest").as_string();
      job.cache = r.at("cache").as_string();
      job.delay_ps = r.at("detailed_delay_ps").as_double();
      job.area_mm2 = r.at("area_mm2").as_double();
      job.length_um = r.at("length_um").as_double();
      job.violated = r.at("violated_constraints").as_int();
      job.verify_errors = r.at("verify_errors").as_int();
    }
    finished.push_back(static_cast<std::int32_t>(index));
    finished_cv.notify_one();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad serve event: %s\n", e.what());
  }
}

/// Session phase wall totals (s) recorded in the scheduler's latency
/// windows so far; the runner records them before it emits `done`.
std::map<std::string, double> phase_totals(const JobScheduler& scheduler) {
  const JobScheduler::LatencyWindows& w = scheduler.latency();
  return {{"parse", static_cast<double>(w.parse_us.snapshot().sum) * 1e-6},
          {"route", static_cast<double>(w.route_us.snapshot().sum) * 1e-6},
          {"channel", static_cast<double>(w.channel_us.snapshot().sum) * 1e-6},
          {"verify", static_cast<double>(w.verify_us.snapshot().sum) * 1e-6},
          {"report", static_cast<double>(w.report_us.snapshot().sum) * 1e-6}};
}

/// One round against the long-lived scheduler, as against a running
/// daemon: the cache is emptied, then each client sends its job list, one
/// job outstanding at a time, until every job has ended.
Round run_round(JobScheduler& scheduler, DesignCache& cache, EventSink& sink,
                const std::vector<PlannedJob>& jobs) {
  Round round;
  round.jobs.resize(jobs.size());
  cache.clear();
  std::vector<std::vector<std::int32_t>> queue(kClients);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    queue[static_cast<std::size_t>(jobs[i].client)].push_back(
        static_cast<std::int32_t>(i));
  }
  std::vector<std::size_t> next(kClients, 0);
  std::size_t outstanding = 0;
  auto submit_next = [&](std::int32_t client) {
    std::size_t& n = next[static_cast<std::size_t>(client)];
    const auto& mine = queue[static_cast<std::size_t>(client)];
    if (n >= mine.size()) return;
    const std::int32_t index = mine[n++];
    {
      std::lock_guard<std::mutex> lock(sink.mutex);
      round.jobs[static_cast<std::size_t>(index)].submit_ns = now_ns();
    }
    ++outstanding;
    const bgr::serve::Admission admission = scheduler.submit(
        "client" + std::to_string(client),
        jobs[static_cast<std::size_t>(index)].request);
    if (!admission.accepted) {
      std::lock_guard<std::mutex> lock(sink.mutex);
      JobRecord& record = round.jobs[static_cast<std::size_t>(index)];
      record.status = "rejected:" + admission.reason;
      record.started_ns = record.done_ns = now_ns();
      sink.finished.push_back(index);
    }
  };

  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.jobs = &round.jobs;
  }
  const CounterSnapshot counters_before = CounterSnapshot::take();
  const DesignCache::Stats cache_before = cache.stats();
  const std::map<std::string, double> phases_before = phase_totals(scheduler);
  round.start_ns = now_ns();
  for (std::int32_t c = 0; c < kClients; ++c) submit_next(c);
  while (outstanding > 0) {
    std::int32_t index = 0;
    {
      std::unique_lock<std::mutex> lock(sink.mutex);
      sink.finished_cv.wait(lock, [&] { return !sink.finished.empty(); });
      index = sink.finished.front();
      sink.finished.pop_front();
    }
    --outstanding;
    submit_next(jobs[static_cast<std::size_t>(index)].client);
  }
  round.end_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.jobs = nullptr;
  }
  round.counters = CounterSnapshot::take().minus(counters_before);
  const DesignCache::Stats after = cache.stats();
  round.cache = {after.dataset_hits - cache_before.dataset_hits,
                 after.dataset_misses - cache_before.dataset_misses,
                 after.result_hits - cache_before.result_hits,
                 after.result_misses - cache_before.result_misses,
                 after.evictions - cache_before.evictions};
  for (const auto& [name, total] : phase_totals(scheduler)) {
    round.phase_s[name] = total - phases_before.at(name);
  }
  // The routed jobs' stored results carry their RouteOutcome phases. Read
  // after the stats snapshot: these lookups count as result hits.
  for (const PlannedJob& job : jobs) {
    if (job.variant == kRepeat) continue;
    const std::uint64_t key = bgr::serve::request_result_key(
        job.request, DesignCache::text_key(job.request.design_text));
    if (const auto stored = cache.find_result(key)) {
      for (const bgr::PhaseStats& phase : stored->outcome.phases) {
        round.route_phase_s[phase.name] += phase.seconds;
      }
    }
  }
  return round;
}

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

void run_serve_workload(const RunOptions& options, Result& result) {
  const std::int64_t run_start = now_ns();
  SpanLog log;
  SpanLog* const trace = options.trace ? &log : nullptr;

  // Set-up: generate and serialize every design, several times.
  constexpr int kSetupReps = 15;
  std::vector<ServeDesign> designs;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> write_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<ServeDesign> made;
    double generate = 0.0;
    double write = 0.0;
    const std::int64_t start = now_ns();
    ScopedSpan setup_span(trace, "setup", -1);
    for (std::size_t i = 0; i < std::size(kSizes); ++i) {
      const DesignSize& size = kSizes[i];
      bgr::CircuitSpec spec;
      spec.name = "s" + std::to_string(i);
      spec.seed = derived_seed(options.seed, kServeSeedBase + i);
      spec.rows = size.rows;
      spec.target_cells = size.target_cells;
      spec.levels = size.levels;
      spec.path_constraints = size.constraints;
      std::int64_t t = now_ns();
      const bgr::Dataset dataset = [&] {
        ScopedSpan span(trace, "gen.generate", setup_span.index(), spec.name);
        return bgr::generate_circuit(spec);
      }();
      generate += ns_to_s(now_ns() - t);
      t = now_ns();
      std::ostringstream os;
      {
        ScopedSpan span(trace, "io.write_design", setup_span.index(),
                        spec.name);
        bgr::write_design(os, dataset);
      }
      write += ns_to_s(now_ns() - t);
      made.push_back({spec.name, os.str(),
                      static_cast<std::int32_t>(dataset.constraints.size())});
    }
    setup_s.push_back(ns_to_s(now_ns() - start));
    generate_s.push_back(generate);
    write_s.push_back(write);
    designs = std::move(made);
  }
  const std::vector<PlannedJob> jobs = plan_jobs(designs);

  // Rounds until the next would overrun the budget, and at least 100 jobs.
  constexpr std::size_t kMinJobs = 100;
  const std::size_t min_rounds = options.trace ? 2 : 3;
  std::vector<Round> rounds;
  std::vector<double> round_s;
  DesignCache cache;
  EventSink sink;
  bgr::serve::SchedulerConfig config;
  config.pool_workers = 0;
  config.max_jobs = 2;
  // One latency-window epoch outlasts the run, so window sums only grow
  // and their differences are per-round phase totals.
  config.window_epoch_ms = 3600 * 1000;
  JobScheduler scheduler(
      config, &cache,
      [&sink](const std::string&, const bgr::JsonValue& event) {
        sink.on_event(event);
      });
  for (;;) {
    rounds.push_back(run_round(scheduler, cache, sink, jobs));
    round_s.push_back(rounds.back().seconds());
    const double elapsed = ns_to_s(now_ns() - run_start);
    if (rounds.size() >= min_rounds &&
        rounds.size() * jobs.size() >= kMinJobs &&
        elapsed + median(round_s) > options.seconds) {
      break;
    }
  }
  scheduler.drain_and_stop();

  // Correctness: every job done and verifier-clean, the planned cache
  // disposition, every repeat's digest equal to its first completion, and
  // semantic counters repeating round over round.
  std::map<std::pair<std::int32_t, int>, std::string> first_digest;
  std::vector<double> latency_ms;
  std::vector<double> wait_ms;
  std::vector<double> service_ms;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobRecord& job = rounds[r].jobs[i];
      const PlannedJob& plan = jobs[i];
      ++result.attempted;
      latency_ms.push_back(static_cast<double>(job.done_ns - job.submit_ns) *
                           1e-6);
      wait_ms.push_back(static_cast<double>(job.started_ns - job.submit_ns) *
                        1e-6);
      service_ms.push_back(
          static_cast<double>(job.done_ns - job.started_ns) * 1e-6);
      const int key_variant = plan.variant == kRepeat ? kCold : plan.variant;
      const auto [it, inserted] = first_digest.emplace(
          std::make_pair(plan.design, key_variant), job.digest);
      std::string problem;
      if (job.status != "done") {
        problem = "ended " + job.status;
      } else if (job.verify_errors != 0) {
        problem = std::to_string(job.verify_errors) + " verify errors";
      } else if (job.cache != kExpectedCache[plan.variant]) {
        problem = "cache " + job.cache + ", planned " +
                  kExpectedCache[plan.variant];
      } else if (!inserted && it->second != job.digest) {
        problem = "digest " + job.digest + " differs from first " +
                  it->second;
      }
      if (!problem.empty()) {
        ++result.failed;
        result.note("round " + std::to_string(r) + " " + plan.request.id +
                    ": " + problem);
      }
    }
    for (const std::string& diff :
         rounds[r].counters.semantic_diff(rounds.front().counters)) {
      result.fail("round " + std::to_string(r) +
                  " semantic counter moved: " + diff);
    }
  }

  const Round& first = rounds.front();
  if (!options.trace) {
    double delay = 0.0, area = 0.0, length = 0.0, met = 0.0, total = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const PlannedJob& plan = jobs[i];
      if (plan.variant == kRepeat) continue;
      const JobRecord& job = first.jobs[i];
      delay += job.delay_ps;
      area += job.area_mm2;
      length += job.length_um / 1000.0;
      if (plan.request.constrained) {
        const std::int32_t constraints =
            designs[static_cast<std::size_t>(plan.design)].constraints;
        met += static_cast<double>(constraints - job.violated);
        total += constraints;
      }
    }
    const double flow_s = median(round_s);
    result.set("flow_s", flow_s, "s");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("delay_ps", delay, "ps");
    result.set("area_mm2", area, "mm2");
    result.set("length_mm", length, "mm");
    result.set("constraints_met_pct", 100.0 * ratio(met, total), "%");
    result.set("jobs_per_s", ratio(static_cast<double>(jobs.size()), flow_s),
               "1/s");
    result.set("job_p50_ms", quantile(latency_ms, 0.5), "ms");
    result.set("job_p90_ms", quantile(latency_ms, 0.9), "ms");
    result.note("constraints met " + std::to_string(static_cast<int>(met)) +
                " of " + std::to_string(static_cast<int>(total)));
    std::string round_list;
    for (const double s : round_s) round_list += " " + std::to_string(s);
    result.note("round seconds" + round_list + " (" +
                std::to_string(jobs.size()) + " jobs each; " +
                std::to_string(latency_ms.size()) + " latency samples)");
    return;
  }

  // Traced run: every other round records spans built from the outside
  // timestamps each round measures anyway.
  for (const auto& [name, unit] : per_layer_metrics()) {
    result.set(name, 0.0, unit);
  }
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<double> other_s;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    if (r % 2 == 0) {
      untraced_s.push_back(round.seconds());
      continue;
    }
    traced_s.push_back(round.seconds());
    const std::int32_t root = log.add("serve.round", round.start_ns,
                                      round.end_ns, -1, std::to_string(r));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobRecord& job = round.jobs[i];
      const std::string& id = jobs[i].request.id;
      const std::int32_t span =
          log.add("serve.job", job.submit_ns, job.done_ns, root, id);
      log.add("serve.queue_wait", job.submit_ns, job.started_ns, span, id);
      log.add("serve.service", job.started_ns, job.done_ns, span, id);
    }
    std::map<std::string, double> self = log.self_seconds_under(root);
    other_s.push_back(self["serve.round"] + self["serve.job"]);
  }
  for (const std::string& error : log.containment_errors()) {
    result.fail(error);
  }
  double phase_sum = 0.0;
  for (const auto& [name, seconds] : first.route_phase_s) phase_sum += seconds;
  const double route_s = value_or_zero(first.phase_s, "route");
  result.set("gen.generate_s", median(generate_s), "s");
  result.set("io.write_design_s", median(write_s), "s");
  result.set("io.parse_s", value_or_zero(first.phase_s, "parse"), "s");
  result.set("route.run_s", route_s, "s");
  result.set("route.build_s", route_s - phase_sum, "s");
  result.set("route.initial_s", value_or_zero(first.route_phase_s, "initial"),
             "s");
  result.set("route.recover_s",
             value_or_zero(first.route_phase_s, "recover_violate"), "s");
  result.set("route.improve_delay_s",
             value_or_zero(first.route_phase_s, "improve_delay"), "s");
  result.set("route.improve_area_s",
             value_or_zero(first.route_phase_s, "improve_area"), "s");
  result.set("channel.run_s", value_or_zero(first.phase_s, "channel"), "s");
  result.set("verify.run_s", value_or_zero(first.phase_s, "verify"), "s");
  result.set("io.write_route_s", value_or_zero(first.phase_s, "report"), "s");
  result.set("flow.other_s", median(other_s), "s");
  result.set("trace.overhead_s", median(traced_s) - median(untraced_s), "s");
  report_counters(first.counters, result);
  std::int64_t verify_errors = 0;
  std::int64_t violations = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    verify_errors += std::max<std::int64_t>(first.jobs[i].verify_errors, 0);
    if (jobs[i].variant != kRepeat && jobs[i].request.constrained) {
      violations += first.jobs[i].violated;
    }
  }
  result.set("verify.errors", static_cast<double>(verify_errors), "count");
  result.set("quality.violations", static_cast<double>(violations), "count");
  result.set("serve.queue_wait_p50_ms", quantile(wait_ms, 0.5), "ms");
  result.set("serve.queue_wait_p90_ms", quantile(wait_ms, 0.9), "ms");
  result.set("serve.service_p50_ms", quantile(service_ms, 0.5), "ms");
  result.set("serve.service_p90_ms", quantile(service_ms, 0.9), "ms");
  const DesignCache::Stats& stats = first.cache;
  result.set("serve.dataset_hits", static_cast<double>(stats.dataset_hits),
             "count");
  result.set("serve.dataset_misses", static_cast<double>(stats.dataset_misses),
             "count");
  result.set("serve.result_hits", static_cast<double>(stats.result_hits),
             "count");
  result.set("serve.result_misses", static_cast<double>(stats.result_misses),
             "count");
  result.set("serve.evictions", static_cast<double>(stats.evictions), "count");
  save_trace(log, options, first.counters, result);
}

}  // namespace perfbench
