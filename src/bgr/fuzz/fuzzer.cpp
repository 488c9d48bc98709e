#include "bgr/fuzz/fuzzer.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "bgr/channel/channel_router.hpp"
#include "bgr/fuzz/mutator.hpp"
#include "bgr/fuzz/shrinker.hpp"
#include "bgr/fuzz/spec_sampler.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/io/io_error.hpp"
#include "bgr/io/route_io.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/router.hpp"

namespace bgr {

namespace {

/// Base artifacts the text modes corrupt: one small fixed design, its
/// routed result, and a representative JSON document. Built once — the
/// corruption seed, not the base, carries the per-case entropy.
struct BaseTexts {
  std::string design;
  std::string route;
  std::string json;
  std::string serve;
};

const BaseTexts& base_texts() {
  static const BaseTexts texts = [] {
    BaseTexts out;
    CircuitSpec spec = sample_spec(0);
    spec.rows = 3;
    spec.target_cells = 30;
    spec.levels = 3;
    spec.path_constraints = 4;
    Dataset ds = generate_circuit(spec);
    {
      std::ostringstream os;
      write_design(os, ds);
      out.design = os.str();
    }
    RouterOptions options;
    GlobalRouter router(ds.netlist, std::move(ds.placement), ds.tech,
                        ds.constraints, options);
    (void)router.run();
    ChannelStage channel(router);
    channel.run();
    {
      std::ostringstream os;
      write_route(os, router, channel);
      out.route = os.str();
    }
    out.json =
        "{\"version\": 1, \"design\": \"fz0\", \"phases\": "
        "[{\"name\": \"initial\", \"deletions\": 120, \"crit\": 835.25}, "
        "{\"name\": \"delay\", \"deletions\": 4, \"crit\": -1.5e2}], "
        "\"clean\": true, \"notes\": null, "
        "\"nested\": {\"a\": [1, 2.5, \"s\\n\", false], \"b\": {}}}";
    // One of each request shape the serve protocol accepts, so the
    // mutator corrupts ids, option keys, escapes and frame boundaries.
    out.serve =
        "{\"id\": \"j1\", \"dataset\": \"C1P1\", \"options\": "
        "{\"rc\": true, \"improvement_passes\": 3, "
        "\"path_search\": \"astar\"}, \"report\": true}\n"
        "{\"id\": \"j2\", \"design\": \"bgr-design 1\\nname fz0\\n\", "
        "\"verify\": true, \"route_text\": false}\n"
        "{\"id\": \"j3\", \"design_file\": \"/tmp/design.txt\", "
        "\"options\": {\"unconstrained\": true}}\n"
        "{\"cancel\": \"j1\"}\n"
        "{\"ping\": true}\n"
        "{\"shutdown\": true}\n";
    return out;
  }();
  return texts;
}

}  // namespace

const char* fuzz_mode_name(FuzzMode mode) {
  switch (mode) {
    case FuzzMode::kSpec: return "spec";
    case FuzzMode::kDesignText: return "design";
    case FuzzMode::kRouteText: return "route";
    case FuzzMode::kJsonText: return "json";
    case FuzzMode::kServeText: return "serve";
  }
  return "?";
}

FuzzCase fuzz_one(std::uint64_t seed, FuzzMode mode,
                  const FuzzOptions& options, bool shrink) {
  FuzzCase result;
  result.seed = seed;
  result.mode = mode;

  if (mode == FuzzMode::kSpec) {
    const CircuitSpec spec = sample_spec(seed);
    result.failure = check_spec(spec, options);
    if (result.failure) {
      CircuitSpec minimal = spec;
      if (shrink) {
        const std::string oracle = result.failure->oracle;
        minimal = shrink_spec(spec, [&](const CircuitSpec& candidate) {
          const auto failure = check_spec(candidate, options);
          return failure && failure->oracle == oracle;
        });
        result.failure = check_spec(minimal, options);  // refresh detail
      }
      result.repro = spec_to_text(minimal);
    }
    return result;
  }

  const BaseTexts& base = base_texts();
  const std::string* base_text = &base.design;
  std::optional<FuzzFailure> (*oracle)(const std::string&) =
      &check_design_text;
  if (mode == FuzzMode::kRouteText) {
    base_text = &base.route;
    oracle = &check_route_text;
  } else if (mode == FuzzMode::kJsonText) {
    base_text = &base.json;
    oracle = &check_json_text;
  } else if (mode == FuzzMode::kServeText) {
    base_text = &base.serve;
    oracle = &check_serve_text;
  }

  const std::string mutated = mutate_text(*base_text, seed);
  result.failure = (*oracle)(mutated);
  if (result.failure) {
    std::string minimal = mutated;
    if (shrink) {
      const std::string kind = result.failure->oracle;
      minimal = shrink_text(mutated, [&](const std::string& candidate) {
        const auto failure = (*oracle)(candidate);
        return failure && failure->oracle == kind;
      });
      result.failure = (*oracle)(minimal);  // refresh detail
    }
    result.repro = minimal;
  }
  return result;
}

int run_campaign(const FuzzCampaign& campaign, std::ostream& log) {
  static const FuzzMode kRotation[] = {
      FuzzMode::kSpec, FuzzMode::kDesignText, FuzzMode::kRouteText,
      FuzzMode::kJsonText, FuzzMode::kServeText};
  int failures = 0;
  std::map<std::string, int> per_mode;
  for (std::uint64_t seed = campaign.seed_lo; seed <= campaign.seed_hi;
       ++seed) {
    const FuzzMode mode =
        campaign.only_mode
            ? *campaign.only_mode
            : kRotation[seed % (sizeof(kRotation) / sizeof(kRotation[0]))];
    const FuzzCase result =
        fuzz_one(seed, mode, campaign.oracle, campaign.shrink);
    ++per_mode[fuzz_mode_name(mode)];
    if (campaign.verbose) {
      log << "seed " << seed << " [" << fuzz_mode_name(mode) << "] "
          << (result.failure ? "FAIL" : "ok") << "\n";
    }
    if (!result.failure) continue;
    ++failures;
    log << "FAILURE seed " << seed << " [" << fuzz_mode_name(mode)
        << "] oracle=" << result.failure->oracle << "\n  "
        << result.failure->detail << "\n";
    if (!campaign.corpus_out.empty()) {
      std::error_code ec;  // best-effort; the ofstream below reports loss
      std::filesystem::create_directories(campaign.corpus_out, ec);
      const std::string stem = campaign.corpus_out + "/repro_" +
                               fuzz_mode_name(mode) + "_seed" +
                               std::to_string(seed);
      std::ofstream repro(stem + ".txt");
      repro << result.repro;
      std::ofstream expect(stem + ".expect");
      expect << "oracle " << result.failure->oracle << "\n"
             << "detail " << result.failure->detail << "\n";
      if (repro && expect) {
        log << "  repro written to " << stem << ".txt\n";
      } else {
        log << "  could not write repro to " << stem << ".txt\n";
      }
    }
  }
  log << "fuzz: " << (campaign.seed_hi - campaign.seed_lo + 1) << " cases (";
  bool first = true;
  for (const auto& [name, count] : per_mode) {
    if (!first) log << ", ";
    log << count << " " << name;
    first = false;
  }
  log << "), " << failures << " failure" << (failures == 1 ? "" : "s")
      << "\n";
  return failures;
}

}  // namespace bgr
