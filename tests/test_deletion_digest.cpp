// Deletion-order pin: the committed §3.4 deletion sequence of full runs on
// the paper circuits and the sharded 10k preset, digested and compared
// against tests/golden/deletion_digests.txt. The digests were recorded with
// the full-rescan selection loops; SelectionIndex picks the argmin of the
// same total order, so the sequence — global loop, shard workers and the
// reroute reductions alike — must be reproduced bit for bit, at any
// thread count.
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bgr/gen/generator.hpp"
#include "bgr/route/router.hpp"

namespace bgr {
namespace {

struct Digest {
  std::int64_t deletions = 0;
  std::uint64_t fnv = 1469598103934665603ULL;  // FNV-1a 64 offset basis

  void add(const std::string& net_name, std::int32_t edge) {
    for (const char c : net_name + ":" + std::to_string(edge) + "\n") {
      fnv ^= static_cast<unsigned char>(c);
      fnv *= 1099511628211ULL;
    }
    ++deletions;
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex;
    os.width(16);
    os.fill('0');
    os << fnv;
    return os.str();
  }
};

std::map<std::string, std::pair<std::int64_t, std::string>> golden() {
  std::ifstream in(std::string(BGR_GOLDEN_DIR) + "/deletion_digests.txt");
  std::map<std::string, std::pair<std::int64_t, std::string>> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::int64_t deletions = 0;
    std::string hex;
    fields >> name >> deletions >> hex;
    out[name] = {deletions, hex};
  }
  return out;
}

Digest route_digest(const std::string& dataset, std::int32_t threads) {
  Dataset ds = make_dataset(dataset);
  RouterOptions options;
  options.threads = threads;
  Digest digest;
  const Netlist& netlist = ds.netlist;
  options.deletion_observer = [&](NetId net, std::int32_t edge) {
    digest.add(netlist.net(net).name, edge);
  };
  GlobalRouter router(ds.netlist, std::move(ds.placement), ds.tech,
                      ds.constraints, options);
  (void)router.run();
  return digest;
}

TEST(DeletionDigest, MatchesGoldenAtOneAndFourThreads) {
  const auto expected = golden();
  ASSERT_EQ(expected.size(), 4u) << "golden file missing or truncated";
  for (const auto& [dataset, pin] : expected) {
    for (const std::int32_t threads : {1, 4}) {
      const Digest d = route_digest(dataset, threads);
      EXPECT_EQ(d.deletions, pin.first) << dataset << " @" << threads;
      EXPECT_EQ(d.hex(), pin.second) << dataset << " @" << threads;
    }
  }
}

}  // namespace
}  // namespace bgr
