// Deletion-order pin: the committed §3.4 deletion sequence of full runs on
// the paper circuits and the sharded 10k preset, digested and compared
// against tests/golden/deletion_digests.txt. The digests were recorded with
// the full-rescan selection loops; SelectionIndex picks the argmin of the
// same total order, so the sequence — global loop, shard workers and the
// reroute reductions alike — must be reproduced bit for bit, at any
// thread count. Option-keyed entries pin the orders the default options
// do not reach: unconstrained runs, whose keys are density only, the
// Elmore-RC delay half, budget-mode violation recovery, and the
// post-run refine() and reroute() entry points.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

/// Golden key "<dataset>" or "<dataset>/<option>", option one of
/// `unconstrained` (use_constraints = false), `rc` (Elmore-RC delay),
/// `budgets` (use_net_budgets = true), `refine` (run(), then one refine()
/// with every net's estimate raised by 10% of its routed length) or `eco`
/// (run(), then reroute() of every 7th net in name order).
Digest route_digest(const std::string& key, std::int32_t threads) {
  const auto slash = key.find('/');
  const std::string dataset = key.substr(0, slash);
  const std::string option =
      slash == std::string::npos ? std::string() : key.substr(slash + 1);
  Dataset ds = make_dataset(dataset);
  RouterOptions options;
  options.threads = threads;
  if (option == "unconstrained") {
    options.use_constraints = false;
  } else if (option == "rc") {
    options.delay_model = DelayModel::kElmoreRC;
  } else if (option == "budgets") {
    options.use_net_budgets = true;
  } else {
    EXPECT_TRUE(option.empty() || option == "refine" || option == "eco")
        << "unknown digest option " << option;
  }
  Digest digest;
  const Netlist& netlist = ds.netlist;
  options.deletion_observer = [&](NetId net, std::int32_t edge) {
    digest.add(netlist.net(net).name, edge);
  };
  GlobalRouter router(ds.netlist, std::move(ds.placement), ds.tech,
                      ds.constraints, options);
  (void)router.run();
  if (option == "refine") {
    IdVector<NetId, double> extra_um;
    extra_um.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
    for (const NetId n : netlist.nets()) {
      extra_um[n] = 0.1 * router.net_length_um(n);
    }
    (void)router.refine(extra_um);
  } else if (option == "eco") {
    std::vector<NetId> by_name;
    for (const NetId n : netlist.nets()) by_name.push_back(n);
    std::sort(by_name.begin(), by_name.end(), [&](NetId a, NetId b) {
      return netlist.net(a).name < netlist.net(b).name;
    });
    std::vector<NetId> nets;
    for (std::size_t i = 0; i < by_name.size(); i += 7) {
      nets.push_back(by_name[i]);
    }
    (void)router.reroute(nets);
  }
  return digest;
}

TEST(DeletionDigest, MatchesGoldenAtOneAndFourThreads) {
  const auto expected = golden();
  ASSERT_EQ(expected.size(), 10u) << "golden file missing or truncated";
  for (const auto& [key, pin] : expected) {
    for (const std::int32_t threads : {1, 4}) {
      const Digest d = route_digest(key, threads);
      EXPECT_EQ(d.deletions, pin.first) << key << " @" << threads;
      EXPECT_EQ(d.hex(), pin.second) << key << " @" << threads;
    }
  }
}

}  // namespace
}  // namespace bgr
