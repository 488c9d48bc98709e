#include "bgr/serve/protocol.hpp"

#include <stdexcept>

namespace bgr::serve {

namespace {

/// Local parse failure; converted to ParsedRequest::kError at the top.
struct RequestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void bad(const std::string& message) { throw RequestError(message); }

std::string require_string(const JsonValue& v, const char* key) {
  if (v.kind() != JsonValue::Kind::kString) {
    bad(std::string("'") + key + "' must be a string");
  }
  return v.as_string();
}

bool require_bool(const JsonValue& v, const char* key) {
  if (v.kind() != JsonValue::Kind::kBool) {
    bad(std::string("'") + key + "' must be a boolean");
  }
  return v.as_bool();
}

std::int64_t require_int(const JsonValue& v, const char* key) {
  if (v.kind() != JsonValue::Kind::kInt) {
    bad(std::string("'") + key + "' must be an integer");
  }
  return v.as_int();
}

/// The per-job algorithm knobs a client may set. Unknown keys are
/// rejected, not ignored: a typoed option silently falling back to the
/// default would make "bit-identical on re-submission" claims hollow.
void parse_options(const JsonValue& node, JobRequest* out) {
  if (!node.is_object()) bad("'options' must be an object");
  for (const auto& [key, value] : node.members()) {
    if (key == "unconstrained") {
      out->constrained = !require_bool(value, "unconstrained");
    } else if (key == "rc") {
      out->options.delay_model = require_bool(value, "rc")
                                     ? DelayModel::kElmoreRC
                                     : DelayModel::kLumpedC;
    } else if (key == "sequential") {
      out->options.concurrent_initial = !require_bool(value, "sequential");
    } else if (key == "no_improve") {
      const bool off = require_bool(value, "no_improve");
      out->options.enable_violation_recovery = !off;
      out->options.enable_delay_improvement = !off;
      out->options.enable_area_improvement = !off;
    } else if (key == "incremental_sta") {
      out->options.incremental_sta = require_bool(value, "incremental_sta");
    } else if (key == "path_search") {
      const std::string backend = require_string(value, "path_search");
      if (backend == "cached" || backend == "astar") {
        out->options.path_search = PathSearchBackend::kCached;
      } else if (backend == "dijkstra") {
        out->options.path_search = PathSearchBackend::kDijkstra;
      } else {
        bad("'path_search' must be \"cached\" or \"dijkstra\", got \"" +
            backend + "\"");
      }
    } else if (key == "improvement_passes") {
      const std::int64_t passes = require_int(value, "improvement_passes");
      if (passes < 0 || passes > 64) {
        bad("'improvement_passes' must be in [0, 64]");
      }
      out->options.improvement_passes = static_cast<std::int32_t>(passes);
    } else {
      bad("unknown option '" + key + "'");
    }
  }
}

ParsedRequest parse_checked(const std::string& line) {
  JsonValue doc;
  try {
    doc = json_parse(line);
  } catch (const std::exception& e) {
    ParsedRequest out;
    out.kind = ParsedRequest::Kind::kError;
    out.error = std::string("parse error: ") + e.what();
    return out;
  }
  if (!doc.is_object()) bad("request must be a JSON object");

  ParsedRequest out;
  // Control requests have exactly one recognized key.
  if (const JsonValue* cancel = doc.find("cancel")) {
    if (doc.members().size() != 1) bad("'cancel' takes no other fields");
    out.kind = ParsedRequest::Kind::kControl;
    out.control.kind = ControlRequest::Kind::kCancel;
    out.control.target = require_string(*cancel, "cancel");
    if (out.control.target.empty()) bad("'cancel' needs a job id");
    return out;
  }
  if (const JsonValue* shutdown = doc.find("shutdown")) {
    if (doc.members().size() != 1) bad("'shutdown' takes no other fields");
    if (!require_bool(*shutdown, "shutdown")) bad("'shutdown' must be true");
    out.kind = ParsedRequest::Kind::kControl;
    out.control.kind = ControlRequest::Kind::kShutdown;
    return out;
  }
  if (const JsonValue* ping = doc.find("ping")) {
    if (doc.members().size() != 1) bad("'ping' takes no other fields");
    if (!require_bool(*ping, "ping")) bad("'ping' must be true");
    out.kind = ParsedRequest::Kind::kControl;
    out.control.kind = ControlRequest::Kind::kPing;
    return out;
  }

  out.kind = ParsedRequest::Kind::kJob;
  for (const auto& [key, value] : doc.members()) {
    if (key == "id") {
      out.job.id = require_string(value, "id");
    } else if (key == "design") {
      out.job.design_text = require_string(value, "design");
    } else if (key == "dataset") {
      out.job.preset = require_string(value, "dataset");
    } else if (key == "design_file") {
      out.job.design_file = require_string(value, "design_file");
    } else if (key == "options") {
      parse_options(value, &out.job);
    } else if (key == "verify") {
      out.job.verify = require_bool(value, "verify");
    } else if (key == "route_text") {
      out.job.want_route_text = require_bool(value, "route_text");
    } else if (key == "report") {
      out.job.want_report = require_bool(value, "report");
    } else {
      bad("unknown request field '" + key + "'");
    }
  }
  if (out.job.id.empty()) bad("job request needs a non-empty 'id'");
  const int sources = (out.job.design_text.empty() ? 0 : 1) +
                      (out.job.preset.empty() ? 0 : 1) +
                      (out.job.design_file.empty() ? 0 : 1);
  if (sources != 1) {
    bad("job request needs exactly one of 'design', 'dataset', "
        "'design_file'");
  }
  return out;
}

}  // namespace

ParsedRequest parse_request_line(const std::string& line) {
  try {
    return parse_checked(line);
  } catch (const RequestError& e) {
    ParsedRequest out;
    out.kind = ParsedRequest::Kind::kError;
    out.error = e.what();
    return out;
  } catch (const std::exception& e) {
    // Defensive: nothing below should throw anything else, but a request
    // line must never escalate past this function.
    ParsedRequest out;
    out.kind = ParsedRequest::Kind::kError;
    out.error = std::string("invalid request: ") + e.what();
    return out;
  }
}

JsonValue make_event(std::string_view event, std::string_view id) {
  JsonValue doc = JsonValue::object();
  if (!id.empty()) doc.set("id", std::string(id));
  doc.set("event", std::string(event));
  return doc;
}

std::string response_line(const JsonValue& doc) {
  return doc.dump(-1);
}

}  // namespace bgr::serve
