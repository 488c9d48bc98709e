#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "bgr/gen/generator.hpp"

namespace bgr {

/// One oracle violation. `oracle` names the invariant that broke;
/// `detail` is the evidence (exception text, first diverging field, the
/// verifier finding). A nullopt from a check means every oracle held.
struct FuzzFailure {
  std::string oracle;
  std::string detail;
};

struct FuzzOptions {
  /// Second thread count for the determinism oracle (the first is 1).
  std::int32_t alt_threads = 4;
};

/// Full-pipeline oracles over a generated circuit. The spec must be valid
/// (as sample_spec produces); every failure is a bug:
///   crash              any exception out of generate/route/channel
///   verify             RouteVerifier::run() reports an error finding
///   sta-recompute      live margins differ from a from-scratch serial
///                      STA over the final capacitances (bitwise)
///   shard-divergence   RouteOutcome / margins / route text differ
///                      between the sharded deletion loop and the
///                      unsharded serial greedy (DESIGN.md §13)
///   thread-divergence  RouteOutcome / margins / route text differ
///                      between --threads 1 and --threads alt_threads
///   roundtrip          saved design or route text fails to re-parse, or
///                      the write→read→write fixpoint breaks
[[nodiscard]] std::optional<FuzzFailure> check_spec(
    const CircuitSpec& spec, const FuzzOptions& options = {});

/// Parser robustness oracles over (possibly corrupted) text: the parser
/// must either succeed — and then survive a write→read→write fixpoint —
/// or throw a clean IoError diagnostic. Any other exception, including
/// internal-invariant CheckError, is a finding.
[[nodiscard]] std::optional<FuzzFailure> check_design_text(
    const std::string& text);
[[nodiscard]] std::optional<FuzzFailure> check_route_text(
    const std::string& text);
/// JSON parser oracle: clean "JSON parse error ..." or a dump→parse→dump
/// fixpoint on success.
[[nodiscard]] std::optional<FuzzFailure> check_json_text(
    const std::string& text);
/// Serve request-frame oracle (the bgr_serve daemon's parsing entry
/// point): serve::parse_request_line must never throw — malformed or
/// truncated request lines come back as kError with a non-empty
/// diagnostic whose "rejected" response serializes to a single line of
/// re-parseable JSON (the newline is the frame delimiter, so a response
/// containing one would corrupt the stream).
[[nodiscard]] std::optional<FuzzFailure> check_serve_text(
    const std::string& text);

}  // namespace bgr
