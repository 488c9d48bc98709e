#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "bgr/fuzz/oracles.hpp"

namespace bgr {

/// What one fuzz case exercises. kSpec drives the full routing pipeline
/// on a sampled extreme-corner circuit; the text modes drive the parsers
/// with structured corruptions of valid artifacts (kServeText: the
/// bgr_serve daemon's NDJSON request frames).
enum class FuzzMode {
  kSpec,
  kDesignText,
  kRouteText,
  kJsonText,
  kServeText,
};

[[nodiscard]] const char* fuzz_mode_name(FuzzMode mode);

struct FuzzCase {
  std::uint64_t seed = 0;
  FuzzMode mode = FuzzMode::kSpec;
  std::optional<FuzzFailure> failure;
  /// On failure: the minimized reproducer — a `bgr-fuzzspec 1` document
  /// for kSpec, the offending input text otherwise.
  std::string repro;
};

/// Runs one deterministic fuzz case; shrinks on failure when requested.
[[nodiscard]] FuzzCase fuzz_one(std::uint64_t seed, FuzzMode mode,
                                const FuzzOptions& options, bool shrink);

struct FuzzCampaign {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 100;
  std::optional<FuzzMode> only_mode;  // default: rotate through all modes
  FuzzOptions oracle;
  bool shrink = true;
  /// Directory for failing reproducers + .expect sidecars ("" = skip).
  std::string corpus_out;
  bool verbose = false;
};

/// Runs seeds [seed_lo, seed_hi]; logs progress and failures to `log`.
/// Returns the number of failing cases (0 = clean campaign).
int run_campaign(const FuzzCampaign& campaign, std::ostream& log);

}  // namespace bgr
