// Repo benchmark binary: runs one named workload from a seed and
// prints, as its last stdout line, the JSON result document
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   perfbench --workload {paper,scale,serve} --seed N --seconds S
//             --trace {0,1} [--out-dir DIR]
//
// A traced run also writes its spans to DIR/trace-<workload>-<seed>.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper|scale|serve --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.seed = kDefaultSeed;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') return usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();  // a flag without its value

  Result result;
  try {
    if (options.workload == "paper" || options.workload == "scale") {
      run_flow_workload(options, result);
    } else if (options.workload == "serve") {
      run_serve_workload(options, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& line : result.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%s\n", result.json_line().c_str());
  return 0;
}
