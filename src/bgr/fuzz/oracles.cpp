#include "bgr/fuzz/oracles.hpp"

#include <sstream>
#include <typeinfo>
#include <vector>

#include "bgr/channel/channel_router.hpp"
#include "bgr/common/check.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/io/io_error.hpp"
#include "bgr/io/route_io.hpp"
#include "bgr/obs/json.hpp"
#include "bgr/route/router.hpp"
#include "bgr/serve/protocol.hpp"
#include "bgr/timing/analyzer.hpp"
#include "bgr/verify/verifier.hpp"

namespace bgr {

namespace {

/// Everything one pipeline run produces that must be reproducible: the
/// outcome, the final margins, and the serialised artifacts.
struct PipelineResult {
  RouteOutcome outcome;
  double detailed_delay_ps = 0.0;
  std::vector<double> margins;
  std::string route_text;
  std::string design_text;
};

std::string describe_exception() {
  try {
    throw;
  } catch (const CheckError& e) {
    return std::string("CheckError: ") + e.what();
  } catch (const IoError& e) {
    return std::string("IoError: ") + e.what();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Runs generate → route → channel → verify → STA recompute at one thread
/// count. Returns a failure, or fills `out`.
std::optional<FuzzFailure> run_pipeline(const CircuitSpec& spec,
                                        std::int32_t threads,
                                        PathSearchBackend backend,
                                        PipelineResult* out,
                                        bool shard_deletion = true) {
  try {
    Dataset ds = generate_circuit(spec);
    RouterOptions options;
    options.threads = threads;
    options.path_search = backend;
    options.shard_deletion = shard_deletion;
    GlobalRouter router(ds.netlist, std::move(ds.placement), ds.tech,
                        ds.constraints, options);
    out->outcome = router.run();

    // Oracle: live margins must equal a from-scratch serial STA over the
    // same post-global-route capacitances, bit for bit. This must run
    // before the channel stage, which rewrites the delay graph with
    // detailed capacitances and legitimately stales the live analyzer.
    const TimingAnalyzer& live = router.analyzer();
    std::vector<PathConstraint> constraints;
    for (const ConstraintId p : live.constraints()) {
      constraints.push_back(live.constraint(p));
    }
    TimingAnalyzer fresh(router.delay_graph(), constraints);
    fresh.update_all();
    for (const ConstraintId p : live.constraints()) {
      const double live_m = live.margin_ps(p);
      const double fresh_m = fresh.margin_ps(p);
      out->margins.push_back(fresh_m);
      if (live_m != fresh_m) {
        return FuzzFailure{
            "sta-recompute",
            "constraint " + live.constraint(p).name + ": live margin " +
                std::to_string(live_m) + " != recomputed " +
                std::to_string(fresh_m)};
      }
    }

    ChannelStage channel(router);
    channel.run();
    out->detailed_delay_ps = channel.apply_and_critical_delay_ps(
        router.delay_graph(), DelayModel::kLumpedC);

    // Oracle: the independent signoff checks must be clean.
    const RouteVerifier verifier(router, &channel);
    for (const VerifyIssue& issue : verifier.run()) {
      if (issue.severity != VerifyIssue::Severity::kError) continue;
      return FuzzFailure{"verify",
                         "[" + issue.check + "] " + issue.message};
    }

    // Serialised artifacts (also inputs to the round-trip oracles).
    std::ostringstream route_os;
    write_route(route_os, router, channel);
    out->route_text = route_os.str();

    Dataset routed{ds.name, ds.spec, ds.netlist, router.placement(),
                   ds.constraints, ds.tech};
    std::ostringstream design_os;
    write_design(design_os, routed);
    out->design_text = design_os.str();
    return std::nullopt;
  } catch (...) {
    return FuzzFailure{"crash", "threads=" + std::to_string(threads) + ": " +
                                    describe_exception()};
  }
}

/// Write→read→write fixpoint for a serialised artifact the writer just
/// produced: it must re-parse, and its canonical re-serialisation must be
/// byte-identical.
std::optional<FuzzFailure> check_roundtrip(const std::string& what,
                                           const std::string& text,
                                           bool is_route) {
  try {
    std::ostringstream again;
    if (is_route) {
      std::istringstream is(text);
      write_route_doc(again, read_route(is, what));
    } else {
      std::istringstream is(text);
      const Dataset loaded = read_design(is, what);
      write_design(again, loaded);
    }
    if (again.str() != text) {
      return FuzzFailure{"roundtrip",
                         what + ": write->read->write is not a fixpoint"};
    }
    return std::nullopt;
  } catch (...) {
    return FuzzFailure{"roundtrip", what + " failed to re-parse: " +
                                        describe_exception()};
  }
}

std::string first_divergence(const PipelineResult& a,
                             const PipelineResult& b,
                             bool compare_path_effort) {
  auto num = [](double x) { return std::to_string(x); };
  if (a.outcome.critical_delay_ps != b.outcome.critical_delay_ps) {
    return "critical_delay_ps " + num(a.outcome.critical_delay_ps) + " vs " +
           num(b.outcome.critical_delay_ps);
  }
  if (a.outcome.total_length_um != b.outcome.total_length_um) {
    return "total_length_um " + num(a.outcome.total_length_um) + " vs " +
           num(b.outcome.total_length_um);
  }
  if (a.outcome.violated_constraints != b.outcome.violated_constraints) {
    return "violated_constraints";
  }
  if (a.outcome.worst_margin_ps != b.outcome.worst_margin_ps) {
    return "worst_margin_ps";
  }
  if (a.outcome.feed_cells_added != b.outcome.feed_cells_added) {
    return "feed_cells_added";
  }
  if (a.outcome.widen_pitches != b.outcome.widen_pitches) {
    return "widen_pitches";
  }
  if (a.detailed_delay_ps != b.detailed_delay_ps) return "detailed_delay_ps";
  if (a.margins != b.margins) return "constraint margins";
  if (a.outcome.phases.size() != b.outcome.phases.size()) {
    return "phase count";
  }
  for (std::size_t i = 0; i < a.outcome.phases.size(); ++i) {
    const PhaseStats& pa = a.outcome.phases[i];
    const PhaseStats& pb = b.outcome.phases[i];
    // seconds / exec_regions / exec_chunks legitimately vary with the
    // thread count; everything else is semantic.
    if (pa.deletions != pb.deletions || pa.reroutes != pb.reroutes ||
        pa.worst_margin_ps != pb.worst_margin_ps ||
        pa.critical_delay_ps != pb.critical_delay_ps ||
        pa.sum_max_density != pb.sum_max_density ||
        pa.sta_updates != pb.sta_updates ||
        pa.sta_dirty_vertices != pb.sta_dirty_vertices ||
        pa.sta_relaxations != pb.sta_relaxations) {
      return "phase '" + pa.name + "' statistics";
    }
    // Pops and relaxations differ by construction between backends (that
    // is the cache's whole point); compare them only when both runs used
    // one.
    if (compare_path_effort &&
        (pa.path_searches != pb.path_searches ||
         pa.path_pops != pb.path_pops ||
         pa.path_relaxations != pb.path_relaxations)) {
      return "phase '" + pa.name + "' path-search statistics";
    }
  }
  if (a.route_text != b.route_text) return "route text";
  if (a.design_text != b.design_text) return "design text";
  return "";
}

}  // namespace

std::optional<FuzzFailure> check_spec(const CircuitSpec& spec,
                                      const FuzzOptions& options) {
  PipelineResult serial;
  if (auto failure =
          run_pipeline(spec, 1, PathSearchBackend::kCached, &serial)) {
    return failure;
  }

  if (auto failure = check_roundtrip("route", serial.route_text, true)) {
    return failure;
  }
  if (auto failure =
          check_roundtrip("design", serial.design_text, false)) {
    return failure;
  }

  // Oracle: the cached (cone-repair) backend must reproduce the reference
  // Dijkstra pipeline bit for bit — outcome, margins, artifacts — with
  // only the search-effort counters allowed to differ.
  PipelineResult reference;
  if (auto failure =
          run_pipeline(spec, 1, PathSearchBackend::kDijkstra, &reference)) {
    return failure;
  }
  const std::string backend_diverged =
      first_divergence(serial, reference, /*compare_path_effort=*/false);
  if (!backend_diverged.empty()) {
    return FuzzFailure{"backend-divergence",
                       "cached vs dijkstra differ in " + backend_diverged};
  }

  // Oracle: the sharded deletion loop (DESIGN.md §13) must be bit-identical
  // to the unsharded serial greedy — outcome, margins, artifacts, and every
  // semantic phase statistic.
  PipelineResult unsharded;
  if (auto failure = run_pipeline(spec, 1, PathSearchBackend::kCached,
                                  &unsharded, /*shard_deletion=*/false)) {
    return failure;
  }
  const std::string shard_diverged =
      first_divergence(serial, unsharded, /*compare_path_effort=*/true);
  if (!shard_diverged.empty()) {
    return FuzzFailure{"shard-divergence",
                       "sharded vs unsharded deletion differ in " +
                           shard_diverged};
  }

  if (options.alt_threads > 1) {
    PipelineResult threaded;
    if (auto failure = run_pipeline(spec, options.alt_threads,
                                    PathSearchBackend::kCached, &threaded)) {
      return failure;
    }
    const std::string diverged =
        first_divergence(serial, threaded, /*compare_path_effort=*/true);
    if (!diverged.empty()) {
      return FuzzFailure{"thread-divergence",
                         "threads 1 vs " +
                             std::to_string(options.alt_threads) +
                             " differ in " + diverged};
    }
  }
  return std::nullopt;
}

std::optional<FuzzFailure> check_design_text(const std::string& text) {
  std::optional<Dataset> parsed;
  try {
    std::istringstream is(text);
    parsed.emplace(read_design(is, "fuzz"));
  } catch (const IoError&) {
    return std::nullopt;  // clean rejection is the expected outcome
  } catch (...) {
    return FuzzFailure{"io-crash", describe_exception()};
  }
  // The mutation survived parsing: the accepted design must round-trip.
  // A writer crash here means the reader admitted a design that violates
  // the writer's invariants — a finding, never a terminate.
  try {
    std::ostringstream os;
    write_design(os, *parsed);
    return check_roundtrip("design", os.str(), false);
  } catch (...) {
    return FuzzFailure{"roundtrip",
                       "accepted design fails to serialise: " +
                           describe_exception()};
  }
}

std::optional<FuzzFailure> check_route_text(const std::string& text) {
  try {
    std::istringstream is(text);
    const RouteDoc doc = read_route(is, "fuzz");
    std::ostringstream os;
    write_route_doc(os, doc);
    return check_roundtrip("route", os.str(), true);
  } catch (const IoError&) {
    return std::nullopt;
  } catch (...) {
    return FuzzFailure{"io-crash", describe_exception()};
  }
}

std::optional<FuzzFailure> check_json_text(const std::string& text) {
  JsonValue parsed;
  try {
    parsed = json_parse(text);
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).rfind("JSON parse error", 0) == 0) {
      return std::nullopt;  // clean rejection
    }
    return FuzzFailure{"io-crash", std::string("runtime_error: ") + e.what()};
  } catch (...) {
    return FuzzFailure{"io-crash", describe_exception()};
  }
  try {
    const std::string once = parsed.dump();
    const std::string twice = json_parse(once).dump();
    if (once != twice) {
      return FuzzFailure{"roundtrip", "JSON dump->parse->dump diverges"};
    }
  } catch (...) {
    return FuzzFailure{"roundtrip",
                       "JSON re-parse of own dump failed: " +
                           describe_exception()};
  }
  return std::nullopt;
}

std::optional<FuzzFailure> check_serve_text(const std::string& text) {
  // The daemon reads line-at-a-time; feed the mutated text to the parser
  // the same way (the mutator freely inserts and removes newlines).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    serve::ParsedRequest parsed;
    try {
      parsed = serve::parse_request_line(line);
    } catch (...) {
      return FuzzFailure{"serve-crash",
                         "parse_request_line threw: " + describe_exception()};
    }
    if (parsed.kind == serve::ParsedRequest::Kind::kError) {
      if (parsed.error.empty()) {
        return FuzzFailure{"serve-diagnostic",
                           "rejected request with an empty diagnostic"};
      }
      // The diagnostic goes back over the wire in a "rejected" event; a
      // multi-line or non-re-parseable response would corrupt the frame
      // stream for every later response.
      try {
        JsonValue event = serve::make_event("rejected", parsed.job.id);
        event.set("reason", parsed.error);
        const std::string response = serve::response_line(event);
        if (response.find('\n') != std::string::npos) {
          return FuzzFailure{"serve-frame",
                             "rejection response contains a newline"};
        }
        (void)json_parse(response);
      } catch (...) {
        return FuzzFailure{"serve-frame",
                           "rejection response failed to serialize: " +
                               describe_exception()};
      }
    }
  }
  return std::nullopt;
}

}  // namespace bgr
