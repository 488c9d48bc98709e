// Fuzzing driver for the full routing pipeline and the text parsers.
//
// Usage:
//   bgr_fuzz [--seeds A..B]
//            [--mode spec|design|route|json|serve|all]
//            [--corpus-out DIR] [--no-shrink] [--threads N] [--verbose]
//
// --mode all rotates through the five modes by seed.
//
// Every seed is deterministic: the same seed and mode always exercise the
// same input. Exit code 0 means every case passed its oracles; 1 means at
// least one failure (reproducers land in --corpus-out when given); 2 means
// a usage error.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "bgr/common/parse.hpp"
#include "bgr/fuzz/fuzzer.hpp"
#include "cli_common.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bgr_fuzz [--seeds A..B] [--mode spec|design|route|json|"
               "serve|all]\n"
               "                [--corpus-out DIR] [--no-shrink] [--threads N]"
               " [--verbose] [--help]\n");
}

bool parse_seed_range(const char* text, std::uint64_t* lo, std::uint64_t* hi) {
  const std::string value = text;
  const std::size_t dots = value.find("..");
  if (dots == std::string::npos) {
    const std::optional<std::int64_t> single = bgr::parse_i64(value);
    if (!single || *single < 0) return false;
    *lo = *hi = static_cast<std::uint64_t>(*single);
    return true;
  }
  const std::optional<std::int64_t> a = bgr::parse_i64(value.substr(0, dots));
  const std::optional<std::int64_t> b = bgr::parse_i64(value.substr(dots + 2));
  if (!a || !b || *a < 0 || *b < *a) return false;
  *lo = static_cast<std::uint64_t>(*a);
  *hi = static_cast<std::uint64_t>(*b);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bgr::FuzzCampaign campaign;
  campaign.seed_lo = 1;
  campaign.seed_hi = 100;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--seeds") == 0) {
      const char* value = next_value();
      if (value == nullptr ||
          !parse_seed_range(value, &campaign.seed_lo, &campaign.seed_hi)) {
        std::fprintf(stderr,
                     "error: --seeds expects A..B (or a single seed), got "
                     "'%s'\n",
                     value != nullptr ? value : "<missing>");
        return bgr::cli::kExitUsage;
      }
    } else if (std::strcmp(arg, "--mode") == 0) {
      const char* value = next_value();
      if (value == nullptr) return bgr::cli::missing_value("--mode");
      if (std::strcmp(value, "spec") == 0) {
        campaign.only_mode = bgr::FuzzMode::kSpec;
      } else if (std::strcmp(value, "design") == 0) {
        campaign.only_mode = bgr::FuzzMode::kDesignText;
      } else if (std::strcmp(value, "route") == 0) {
        campaign.only_mode = bgr::FuzzMode::kRouteText;
      } else if (std::strcmp(value, "json") == 0) {
        campaign.only_mode = bgr::FuzzMode::kJsonText;
      } else if (std::strcmp(value, "serve") == 0) {
        campaign.only_mode = bgr::FuzzMode::kServeText;
      } else if (std::strcmp(value, "all") == 0) {
        campaign.only_mode.reset();
      } else {
        std::fprintf(stderr,
                     "error: --mode expects spec|design|route|json|serve|"
                     "all, got '%s'\n",
                     value);
        return bgr::cli::kExitUsage;
      }
    } else if (std::strcmp(arg, "--corpus-out") == 0) {
      const char* value = next_value();
      if (value == nullptr) return bgr::cli::missing_value("--corpus-out");
      campaign.corpus_out = value;
    } else if (std::strcmp(arg, "--threads") == 0) {
      std::int32_t threads = 0;
      if (!bgr::cli::parse_int_option("--threads", next_value(), 1, 1024,
                                      &threads)) {
        return bgr::cli::kExitUsage;
      }
      campaign.oracle.alt_threads = threads;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      campaign.shrink = false;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      campaign.verbose = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return bgr::cli::kExitOk;
    } else {
      return bgr::cli::unknown_option(arg, usage);
    }
  }

  const int failures = bgr::run_campaign(campaign, std::cout);
  return failures > 0 ? bgr::cli::kExitFailure : bgr::cli::kExitOk;
}
