#include "bgr/serve/session.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "bgr/channel/channel_router.hpp"
#include "bgr/common/check.hpp"
#include "bgr/common/hash.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/io/io_error.hpp"
#include "bgr/io/route_io.hpp"
#include "bgr/metrics/report.hpp"
#include "bgr/obs/trace.hpp"
#include "bgr/serve/design_cache.hpp"
#include "bgr/verify/verifier.hpp"

namespace bgr::serve {

namespace {

/// Per-phase bookkeeping: publishes the phase, opens a Chrome-trace span
/// named "<phase>@<trace-id>" (category "job") so the job's spans
/// correlate with its NDJSON lifecycle events, and appends the phase's
/// wall time to result.phase_seconds for the rolling latency windows.
class PhaseScope {
 public:
  PhaseScope(std::atomic<SessionPhase>* slot, SessionPhase phase,
             const std::string& trace_id, SessionResult* result)
      : name_(session_phase_name(phase)),
        result_(result),
        span_(trace_id.empty() ? std::string(name_)
                               : std::string(name_) + "@" + trace_id,
              "job") {
    slot->store(phase, std::memory_order_relaxed);
  }
  ~PhaseScope() {
    result_->phase_seconds.emplace_back(name_, watch_.seconds());
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* name_;
  SessionResult* result_;
  Stopwatch watch_;
  ScopedSpan span_;
};

std::string slurp_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError(path + ": cannot open design file");
  std::ostringstream os;
  os << is.rdbuf();
  if (is.bad()) throw IoError(path + ": read failed");
  return os.str();
}

/// Folds every value-driven field of the finished pipeline. Wall times
/// and exec activity are deliberately excluded: the digest must be equal
/// across thread counts, pool sharing and co-tenant load, which is
/// exactly what the N-jobs-on-one-pool tests assert.
std::string outcome_digest(const RouteOutcome& outcome,
                           double detailed_delay_ps, double area_mm2,
                           double total_length_um,
                           const std::string& route_text) {
  Fingerprint fp;
  fp.mix(outcome.critical_delay_ps);
  fp.mix(outcome.total_length_um);
  fp.mix(outcome.violated_constraints);
  fp.mix(outcome.worst_margin_ps);
  fp.mix(outcome.feed_cells_added);
  fp.mix(outcome.widen_pitches);
  for (const PhaseStats& ph : outcome.phases) {
    fp.mix(std::string_view(ph.name));
    fp.mix(ph.deletions);
    fp.mix(ph.reroutes);
    fp.mix(ph.worst_margin_ps);
    fp.mix(ph.critical_delay_ps);
    fp.mix(ph.sum_max_density);
    fp.mix(ph.sta_updates);
    fp.mix(ph.sta_dirty_vertices);
    fp.mix(ph.sta_relaxations);
    fp.mix(ph.path_searches);
    fp.mix(ph.path_pops);
    fp.mix(ph.path_relaxations);
  }
  fp.mix(detailed_delay_ps);
  fp.mix(area_mm2);
  fp.mix(total_length_um);
  fp.mix(static_cast<std::uint64_t>(route_text.size()));
  fp.mix(std::string_view(route_text));
  return fp.hex();
}

}  // namespace

const char* session_phase_name(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kIdle: return "idle";
    case SessionPhase::kParse: return "parse";
    case SessionPhase::kRoute: return "route";
    case SessionPhase::kChannel: return "channel";
    case SessionPhase::kVerify: return "verify";
    case SessionPhase::kReport: return "report";
    case SessionPhase::kFinished: return "finished";
  }
  return "?";
}

const char* session_status_name(SessionStatus status) {
  switch (status) {
    case SessionStatus::kDone: return "done";
    case SessionStatus::kCancelled: return "cancelled";
    case SessionStatus::kFailed: return "failed";
  }
  return "?";
}

std::uint64_t request_result_key(const JobRequest& request,
                                 std::uint64_t design_key) {
  const RouterOptions& opt = request.options;
  Fingerprint fp;
  fp.mix(design_key);
  fp.mix(static_cast<std::int32_t>(request.constrained));
  fp.mix(static_cast<std::int32_t>(opt.delay_model));
  fp.mix(static_cast<std::int32_t>(opt.use_net_budgets));
  fp.mix(static_cast<std::int32_t>(opt.concurrent_initial));
  fp.mix(static_cast<std::int32_t>(opt.enable_violation_recovery));
  fp.mix(static_cast<std::int32_t>(opt.enable_delay_improvement));
  fp.mix(static_cast<std::int32_t>(opt.enable_area_improvement));
  fp.mix(static_cast<std::int32_t>(opt.use_delay_criteria));
  fp.mix(static_cast<std::int32_t>(opt.use_density_criteria));
  fp.mix(opt.improvement_passes);
  fp.mix(static_cast<std::int32_t>(opt.incremental_sta));
  fp.mix(static_cast<std::int32_t>(opt.path_search));
  fp.mix(static_cast<std::int32_t>(request.verify));
  fp.mix(static_cast<std::int32_t>(request.want_route_text));
  fp.mix(static_cast<std::int32_t>(request.want_report));
  return fp.value();
}

RoutingSession::RoutingSession(JobRequest request, DesignCache* cache,
                               ThreadPool* shared_pool)
    : request_(std::move(request)), cache_(cache), pool_(shared_pool) {}

RoutingSession::~RoutingSession() = default;

void RoutingSession::check_cancel(const char* where) const {
  if (cancel_requested()) {
    throw CancelledError(std::string("session cancelled before ") + where);
  }
}

SessionResult RoutingSession::run() {
  phase_.store(SessionPhase::kIdle, std::memory_order_relaxed);
  SessionResult result;
  try {
    result = run_pipeline();
  } catch (const CancelledError&) {
    result = SessionResult{};
    result.status = SessionStatus::kCancelled;
  } catch (const std::exception& e) {
    result = SessionResult{};
    result.status = SessionStatus::kFailed;
    result.error = e.what();
  }
  phase_.store(SessionPhase::kFinished, std::memory_order_relaxed);
  return result;
}

SessionResult RoutingSession::run_pipeline() {
  Stopwatch watch;
  SessionResult result;
  // One enclosing span per job; the per-phase spans nest inside it on the
  // runner thread, so the whole lifecycle reads as one block in the trace.
  ScopedSpan job_span(
      trace_id_.empty() ? std::string("job") : "job@" + trace_id_, "job");

  // -- Parse / fetch the design ------------------------------------------
  std::uint64_t design_key = 0;
  std::shared_ptr<const Dataset> base;
  std::unique_ptr<Dataset> local;
  bool dataset_hit = false;
  bool result_hit = false;
  {
    PhaseScope phase(&phase_, SessionPhase::kParse, trace_id_, &result);
    check_cancel("parse");
    if (!request_.preset.empty()) {
      design_key = DesignCache::preset_key(request_.preset);
      const std::uint64_t result_key =
          request_result_key(request_, design_key);
      if (cache_ != nullptr) {
        if (auto cached = cache_->find_result(result_key)) {
          result = *cached;
          result.cache = "result-hit";
          result_hit = true;
        } else {
          base = cache_->dataset_for_preset(request_.preset, &dataset_hit);
        }
      } else {
        base = std::make_shared<const Dataset>(make_dataset(request_.preset));
      }
    } else {
      std::string text = request_.design_text;
      std::string source = "request:" + request_.id;
      if (!request_.design_file.empty()) {
        text = slurp_file(request_.design_file);
        source = request_.design_file;
      }
      design_key = DesignCache::text_key(text);
      const std::uint64_t result_key =
          request_result_key(request_, design_key);
      if (cache_ != nullptr) {
        if (auto cached = cache_->find_result(result_key)) {
          result = *cached;
          result.cache = "result-hit";
          result_hit = true;
        } else {
          base = cache_->dataset_for_text(text, source, &dataset_hit);
        }
      } else {
        std::istringstream is(text);
        base = std::make_shared<const Dataset>(read_design(is, source));
      }
    }
    if (result_hit) {
      // The cached run's phase timings are not this job's; the PhaseScope
      // destructor appends this run's (cheap) parse lookup afterwards.
      result.phase_seconds.clear();
    } else {
      result.cache = dataset_hit ? "design-hit" : "miss";
      // The router consumes its inputs (feed cells are inserted into the
      // netlist), so every run works on a private copy of the shared
      // parsed dataset — this is what makes the session re-entrant and
      // the cache entry immutable.
      local = std::make_unique<Dataset>(*base);
    }
  }
  if (result_hit) return result;

  // -- Global routing ----------------------------------------------------
  std::unique_ptr<GlobalRouter> router;
  {
    PhaseScope phase(&phase_, SessionPhase::kRoute, trace_id_, &result);
    check_cancel("route");
    RouterOptions options = request_.options;
    options.use_constraints = request_.constrained;
    options.shared_pool = pool_;
    options.cancel_requested = [this] { return cancel_requested(); };
    router = std::make_unique<GlobalRouter>(local->netlist,
                                            std::move(local->placement),
                                            local->tech, local->constraints,
                                            options);
    result.outcome = router->run();  // throws CancelledError on cancellation
  }

  // -- Channel stage (detailed lengths, area, final delay) ---------------
  std::unique_ptr<ChannelStage> channel;
  {
    PhaseScope phase(&phase_, SessionPhase::kChannel, trace_id_, &result);
    check_cancel("channel");
    channel = std::make_unique<ChannelStage>(*router);
    channel->run();
    result.detailed_delay_ps = channel->apply_and_critical_delay_ps(
        router->delay_graph(), request_.options.delay_model);
    result.area_mm2 = channel->chip_area_mm2();
    result.total_length_um = channel->total_detailed_length_um();
  }

  // -- Optional signoff --------------------------------------------------
  if (request_.verify) {
    PhaseScope phase(&phase_, SessionPhase::kVerify, trace_id_, &result);
    check_cancel("verify");
    const RouteVerifier verifier(*router, channel.get());
    result.verify_errors = 0;
    result.verify_warnings = 0;
    for (const VerifyIssue& issue : verifier.run()) {
      if (issue.severity == VerifyIssue::Severity::kError) {
        ++result.verify_errors;
      } else {
        ++result.verify_warnings;
      }
    }
  }

  // -- Result assembly ---------------------------------------------------
  {
    PhaseScope phase(&phase_, SessionPhase::kReport, trace_id_, &result);
    // The routed-result text always feeds the digest (it is the strongest
    // bit-identity witness: every tree edge and track assignment), whether
    // or not the client asked for the text itself.
    std::string route_text;
    {
      std::ostringstream os;
      write_route(os, *router, *channel);
      route_text = os.str();
    }
    result.digest =
        outcome_digest(result.outcome, result.detailed_delay_ps,
                       result.area_mm2, result.total_length_um, route_text);
    if (request_.want_route_text) result.route_text = std::move(route_text);

    if (request_.want_report) {
      RunReportInfo info;
      info.design = local->name;
      info.constrained = request_.constrained;
      info.detailed_delay_ps = result.detailed_delay_ps;
      info.wall_seconds = watch.seconds();
      result.report =
          make_run_report(*router, *channel, result.outcome, info).root();
    }
  }

  result.status = SessionStatus::kDone;
  if (cache_ != nullptr) {
    cache_->store_result(request_result_key(request_, design_key),
                         std::make_shared<const SessionResult>(result));
  }
  return result;
}

JsonValue result_to_json(const SessionResult& result) {
  JsonValue doc = JsonValue::object();
  doc.set("status", session_status_name(result.status));
  if (!result.error.empty()) doc.set("error", result.error);
  if (result.status != SessionStatus::kDone) return doc;
  doc.set("critical_delay_ps", result.outcome.critical_delay_ps);
  doc.set("detailed_delay_ps", result.detailed_delay_ps);
  doc.set("area_mm2", result.area_mm2);
  doc.set("length_um", result.total_length_um);
  doc.set("violated_constraints",
          static_cast<std::int64_t>(result.outcome.violated_constraints));
  doc.set("worst_margin_ps", result.outcome.worst_margin_ps);
  doc.set("feed_cells_added",
          static_cast<std::int64_t>(result.outcome.feed_cells_added));
  doc.set("digest", result.digest);
  doc.set("cache", result.cache);
  if (result.verify_errors >= 0) {
    doc.set("verify_errors", static_cast<std::int64_t>(result.verify_errors));
    doc.set("verify_warnings",
            static_cast<std::int64_t>(result.verify_warnings));
  }
  return doc;
}

}  // namespace bgr::serve
