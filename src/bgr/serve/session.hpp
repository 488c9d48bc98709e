#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bgr/obs/json.hpp"
#include "bgr/route/router.hpp"
#include "bgr/serve/protocol.hpp"

namespace bgr::serve {

class DesignCache;

/// Where a session currently is. Observable from other threads (the serve
/// status path); transitions happen only on the thread running run().
enum class SessionPhase {
  kIdle,
  kParse,
  kRoute,
  kChannel,
  kVerify,
  kReport,
  kFinished,
};

[[nodiscard]] const char* session_phase_name(SessionPhase phase);

enum class SessionStatus { kDone, kCancelled, kFailed };

[[nodiscard]] const char* session_status_name(SessionStatus status);

/// Self-contained result of one pipeline run. Everything a response needs
/// is copied in — the router, channel stage and parsed design are torn
/// down before run() returns, so memory per finished job is bounded by
/// the result text, not the design.
struct SessionResult {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;  // kFailed: what went wrong
  RouteOutcome outcome;
  double detailed_delay_ps = 0.0;
  double area_mm2 = 0.0;
  double total_length_um = 0.0;
  /// -1 when the request did not ask for verification.
  std::int32_t verify_errors = -1;
  std::int32_t verify_warnings = -1;
  /// Routed result (`bgr-route 1` text); filled only when requested.
  std::string route_text;
  /// Bit-identity fingerprint of the semantic outcome: RouteOutcome
  /// fields, per-phase value-driven stats, detailed delay/area/length and
  /// the routed-result text, FNV-folded by bit pattern (common/hash.hpp).
  /// Equal digests ⇔ bit-identical outcomes; the co-tenancy tests and the
  /// serve smoke test compare jobs through it.
  std::string digest;
  /// Cache disposition: "miss", "design-hit" (parsed dataset reused,
  /// pipeline re-run) or "result-hit" (whole outcome reused).
  std::string cache = "miss";
  /// Full run report document (kind "bgr_route"); filled when requested.
  JsonValue report;
  /// Wall seconds spent in each pipeline phase of *this* run, in pipeline
  /// order ({"parse",s}, {"route",s}, ...). Operational telemetry only:
  /// excluded from the digest and from result_to_json, cleared on a
  /// result-cache hit (the cached run's timings are not this job's).
  std::vector<std::pair<std::string, double>> phase_seconds;
};

/// Re-entrant, cancellable pipeline: parse/fetch design → global routing
/// (graph build, deletion loop, improvement) → channel stage → optional
/// verification → report. This is the object form of what bgr_route's
/// main() used to do inline; it holds zero global state, so any number of
/// sessions may run concurrently — on private pools or on one shared
/// ThreadPool — and each produces the RouteOutcome it would produce alone
/// (DESIGN.md §12).
///
/// Unlike GlobalRouter::run() (single-shot), run() may be called again:
/// every call builds the whole pipeline afresh from the immutable request
/// and returns an independent SessionResult. cancel() may be called from
/// any thread at any time; the running pipeline stops at its next phase
/// boundary and run() returns a kCancelled result. A cancelled session
/// stays usable — clearing nothing but the flag would make re-running it
/// racy against a late cancel, so cancellation is sticky until reset().
class RoutingSession {
 public:
  /// `cache` (optional) serves parsed designs and whole results keyed by
  /// content hash; `shared_pool` (optional) makes the router's parallel
  /// regions run co-tenant on an externally owned pool. Both must outlive
  /// the session.
  RoutingSession(JobRequest request, DesignCache* cache,
                 ThreadPool* shared_pool);
  ~RoutingSession();

  RoutingSession(const RoutingSession&) = delete;
  RoutingSession& operator=(const RoutingSession&) = delete;

  /// Runs the pipeline; never throws (failures and cancellations come
  /// back as the result's status).
  [[nodiscard]] SessionResult run();

  /// Requests cancellation; thread-safe, idempotent. Takes effect at the
  /// next phase boundary of a running pipeline or within 256 edge
  /// deletions of its routing, or immediately at the start of the next
  /// run().
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }
  /// Clears a sticky cancellation so the session can run again.
  void reset() { cancel_.store(false, std::memory_order_relaxed); }

  [[nodiscard]] SessionPhase phase() const {
    return phase_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const JobRequest& request() const { return request_; }

  /// Trace id minted at admission (scheduler) and threaded through every
  /// phase span and NDJSON event of this job. Set once before the session
  /// becomes visible to any other thread (it is read concurrently by the
  /// watchdog); empty for sessions driven outside a scheduler.
  void set_trace_id(std::string trace_id) { trace_id_ = std::move(trace_id); }
  [[nodiscard]] const std::string& trace_id() const { return trace_id_; }

 private:
  [[nodiscard]] SessionResult run_pipeline();
  void check_cancel(const char* where) const;

  JobRequest request_;
  DesignCache* cache_;
  ThreadPool* pool_;
  std::string trace_id_;
  std::atomic<bool> cancel_{false};
  std::atomic<SessionPhase> phase_{SessionPhase::kIdle};
};

/// Canonical fingerprint key of a job request: design content key plus
/// every outcome-affecting option. Two requests with equal keys must
/// produce bit-identical results, which is what lets DesignCache reuse a
/// finished SessionResult for an exact re-submission.
[[nodiscard]] std::uint64_t request_result_key(const JobRequest& request,
                                               std::uint64_t design_key);

/// Response payload for a finished job (the "result" object of a done
/// event): headline numbers, digest, cache disposition, verify counts.
[[nodiscard]] JsonValue result_to_json(const SessionResult& result);

}  // namespace bgr::serve
