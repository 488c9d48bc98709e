#include "bgr/verify/verifier.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "bgr/channel/geometry.hpp"
#include "bgr/common/rng.hpp"
#include "bgr/metrics/experiment.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

struct RoutedFixture {
  Dataset ds;
  Netlist nl;
  GlobalRouter router;
  ChannelStage channel;

  explicit RoutedFixture(std::uint64_t seed,
                         RouterOptions options = RouterOptions{})
      : ds(generate_circuit(testutil::small_spec(seed))),
        nl(ds.netlist),
        router(nl, ds.placement, ds.tech, ds.constraints, options),
        channel((void(router.run()), router)) {
    channel.run();
  }
};

TEST(Verifier, CleanOnRoutedDesign) {
  RoutedFixture f(301);
  const RouteVerifier verifier(f.router, &f.channel);
  const auto issues = verifier.run();
  for (const VerifyIssue& issue : issues) {
    ADD_FAILURE() << issue.check << ": " << issue.message;
  }
  EXPECT_FALSE(RouteVerifier::has_errors(issues));
}

TEST(Verifier, CleanAcrossModes) {
  for (const bool sequential : {false, true}) {
    RouterOptions options;
    options.concurrent_initial = !sequential;
    RoutedFixture f(302, options);
    const RouteVerifier verifier(f.router, &f.channel);
    EXPECT_FALSE(RouteVerifier::has_errors(verifier.run()))
        << (sequential ? "sequential" : "concurrent");
  }
}

TEST(Verifier, CleanWithoutChannelStage) {
  RoutedFixture f(303);
  const RouteVerifier verifier(f.router, nullptr);
  EXPECT_FALSE(RouteVerifier::has_errors(verifier.run()));
}

// --- Per-channel track check ---------------------------------------------

/// The track check as it stood before the sweep, kept here as the oracle:
/// every segment's range finding, then its overlap with every later
/// segment by the O(S²) pair loop, then each trunk against every segment.
std::vector<VerifyIssue> reference_channel_tracks(
    const Netlist& nl, std::int32_t c, const ChannelPlan& plan,
    const std::vector<ChannelTrunk>& trunks) {
  std::vector<VerifyIssue> out;
  auto add = [&](const std::string& message) {
    out.push_back(
        VerifyIssue{VerifyIssue::Severity::kError, "tracks", message});
  };
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    const ChannelSegment& a = plan.segments[i];
    if (a.track < 1 || a.track + a.width - 1 > plan.tracks) {
      add("segment of net " + nl.net(a.net).name + " outside channel " +
          std::to_string(c));
    }
    for (std::size_t j = i + 1; j < plan.segments.size(); ++j) {
      const ChannelSegment& b = plan.segments[j];
      const bool tracks_overlap =
          a.track < b.track + b.width && b.track < a.track + a.width;
      if (tracks_overlap && a.span.overlaps(b.span)) {
        add("nets " + nl.net(a.net).name + " and " + nl.net(b.net).name +
            " overlap in channel " + std::to_string(c));
      }
    }
  }
  for (const ChannelTrunk& trunk : trunks) {
    bool covered = false;
    for (const ChannelSegment& seg : plan.segments) {
      covered = covered ||
                (seg.net == trunk.net && seg.span.contains(trunk.span));
    }
    if (!covered) {
      add("trunk of net " + nl.net(trunk.net).name + " in channel " +
          std::to_string(c) + " not covered by any segment");
    }
  }
  return out;
}

std::vector<VerifyIssue> channel_tracks(
    const Netlist& nl, std::int32_t c, const ChannelPlan& plan,
    const std::vector<ChannelTrunk>& trunks) {
  std::vector<VerifyIssue> out;
  check_channel_tracks(nl, c, plan, trunks, out);
  return out;
}

std::vector<std::string> messages(const std::vector<VerifyIssue>& issues) {
  std::vector<std::string> out;
  for (const VerifyIssue& issue : issues) {
    EXPECT_EQ(issue.severity, VerifyIssue::Severity::kError);
    EXPECT_EQ(issue.check, "tracks");
    out.push_back(issue.message);
  }
  return out;
}

ChannelSegment segment(NetId net, IntInterval span, std::int32_t track,
                       std::int32_t width = 1) {
  ChannelSegment seg;
  seg.net = net;
  seg.width = width;
  seg.span = span;
  seg.track = track;
  return seg;
}

/// Channel 3 of a hand-built plan: nets a and b share track 1 side by
/// side, the 2-pitch net w sits on tracks 2-3 under both; every trunk is
/// covered by its own net's segment.
struct HandPlan {
  Netlist nl{Library::make_ecl_default()};
  NetId a = nl.add_net("a");
  NetId b = nl.add_net("b");
  NetId w = nl.add_net("w", 2);
  ChannelPlan plan;
  std::vector<ChannelTrunk> trunks;

  HandPlan() {
    plan.tracks = 3;
    plan.segments = {segment(a, {0, 4}, 1), segment(b, {5, 9}, 1),
                     segment(w, {2, 7}, 2, 2)};
    trunks = {{a, {0, 2}}, {a, {2, 4}}, {b, {5, 9}}, {w, {2, 7}}};
  }
  [[nodiscard]] std::vector<std::string> findings() const {
    return messages(channel_tracks(nl, 3, plan, trunks));
  }
};

TEST(ChannelTracks, HandBuiltPlanIsClean) {
  const HandPlan h;
  EXPECT_TRUE(h.findings().empty());
}

TEST(ChannelTracks, OverlappingTracksYieldExactlyOneFinding) {
  HandPlan h;
  h.plan.segments[1].span = {4, 9};  // b now shares column 4 with a
  EXPECT_EQ(h.findings(),
            std::vector<std::string>{"nets a and b overlap in channel 3"});
}

TEST(ChannelTracks, WidePitchOverlapIsCaught) {
  HandPlan h;
  h.plan.segments[0].track = 3;  // a lands on w's upper track
  h.plan.segments[1].track = 3;  // b too, apart from a
  EXPECT_EQ(h.findings(),
            (std::vector<std::string>{"nets a and w overlap in channel 3",
                                      "nets b and w overlap in channel 3"}));
}

TEST(ChannelTracks, SegmentOutsideTrackRangeYieldsExactlyOneFinding) {
  HandPlan h;
  h.plan.segments[2].track = 3;  // w's second track would be track 4
  EXPECT_EQ(h.findings(),
            std::vector<std::string>{"segment of net w outside channel 3"});
}

TEST(ChannelTracks, UncoveredTrunkYieldsExactlyOneFinding) {
  HandPlan h;
  h.trunks.push_back({h.b, {4, 6}});  // b's segment starts at column 5
  EXPECT_EQ(h.findings(),
            std::vector<std::string>{
                "trunk of net b in channel 3 not covered by any segment"});
}

TEST(ChannelTracks, TrunkCoveredOnlyByAnotherNetIsUncovered) {
  HandPlan h;
  h.trunks.push_back({h.a, {6, 7}});  // inside w's and b's spans, not a's
  EXPECT_EQ(h.findings(),
            std::vector<std::string>{
                "trunk of net a in channel 3 not covered by any segment"});
}

/// Random plans built to stress the sweep's corners: nested, equal and
/// point spans, w-pitch widths, several segments per net, tracks just
/// outside the range, and now and then an empty span.
TEST(ChannelTracks, MatchesPairLoopOracleOnRandomPlans) {
  Rng rng(17);
  auto pick = [&rng](std::size_t n) {  // uniform index below n > 0
    return static_cast<std::size_t>(
        rng.uniform_i32(0, static_cast<std::int32_t>(n) - 1));
  };
  std::map<std::string, std::int64_t> kinds;  // finding kind -> count
  for (int round = 0; round < 3000; ++round) {
    Netlist nl{Library::make_ecl_default()};
    std::vector<NetId> nets;
    for (std::int32_t k = rng.uniform_i32(1, 6); k > 0; --k) {
      const std::int32_t pitch = rng.bernoulli(0.3) ? rng.uniform_i32(2, 3) : 1;
      nets.push_back(nl.add_net("n" + std::to_string(k), pitch));
    }
    const std::int32_t width = rng.uniform_i32(1, 24);
    ChannelPlan plan;
    for (std::int32_t s = rng.uniform_i32(0, 30); s > 0; --s) {
      const NetId net = nets[pick(nets.size())];
      IntInterval span;
      const double shape = rng.uniform01();
      if (!plan.segments.empty() && shape < 0.3) {
        const IntInterval other =
            plan.segments[pick(plan.segments.size())].span;
        if (shape < 0.15 || other.empty()) {
          span = other;  // equal
        } else {
          const std::int32_t lo = rng.uniform_i32(other.lo, other.hi);
          span = {lo, rng.uniform_i32(lo, other.hi)};  // nested
        }
      } else if (shape < 0.45) {
        span = IntInterval::point(rng.uniform_i32(0, width - 1));
      } else if (shape < 0.48) {
        span = {rng.uniform_i32(1, width), 0};  // empty
      } else {
        const std::int32_t lo = rng.uniform_i32(0, width - 1);
        span = {lo, rng.uniform_i32(lo, width - 1)};
      }
      plan.segments.push_back(segment(net, span, -1, nl.net(net).pitch_width));
    }
    if (rng.bernoulli(0.5)) {
      // A legal assignment, then perhaps one segment knocked off it.
      std::erase_if(plan.segments,
                    [](const ChannelSegment& seg) { return seg.span.empty(); });
      plan.tracks = left_edge_assign(plan.segments);
      if (!plan.segments.empty() && rng.bernoulli(0.5)) {
        plan.segments[pick(plan.segments.size())].track =
            rng.uniform_i32(0, plan.tracks + 1);
      }
    } else {
      plan.tracks = rng.uniform_i32(1, 6);
      for (ChannelSegment& seg : plan.segments) {
        seg.track = rng.uniform_i32(0, plan.tracks + 1);
      }
    }
    std::vector<ChannelTrunk> trunks;
    for (const NetId net : nets) {
      for (std::int32_t t = rng.uniform_i32(0, 4); t > 0; --t) {
        const std::int32_t lo = rng.uniform_i32(0, width - 1);
        const std::int32_t hi =
            rng.uniform_i32(lo, std::min(width - 1, lo + 4));
        trunks.push_back(
            {net, rng.bernoulli(0.05) ? IntInterval{} : IntInterval{lo, hi}});
      }
    }
    const auto expected =
        messages(reference_channel_tracks(nl, 5, plan, trunks));
    ASSERT_EQ(messages(channel_tracks(nl, 5, plan, trunks)), expected)
        << "round " << round;
    for (const std::string& m : expected) ++kinds[m.substr(0, m.find(' '))];
  }
  // Every finding kind shows up in bulk, not just clean plans.
  EXPECT_GT(kinds["segment"], 500);  // outside the track range
  EXPECT_GT(kinds["nets"], 500);     // overlap
  EXPECT_GT(kinds["trunk"], 500);    // uncovered
}

/// The channel-level finding lists concatenate into RouteVerifier's: a
/// routed design checked channel by channel against the oracle agrees.
TEST(ChannelTracks, RoutedDesignMatchesOracleChannelByChannel) {
  RoutedFixture f(308);
  const Netlist& nl = f.router.analyzer().delay_graph().netlist();
  for (std::int32_t c = 0; c < f.channel.channel_count(); ++c) {
    std::vector<ChannelTrunk> trunks;
    for (const NetId n : nl.nets()) {
      const RoutingGraph& g = f.router.net_graph(n);
      for (const auto e : g.alive_edges()) {
        if (g.edge_info(e).is_trunk() && g.edge_info(e).channel == c) {
          trunks.push_back({n, g.edge_info(e).span});
        }
      }
    }
    ChannelPlan plan = f.channel.plan(c);
    EXPECT_TRUE(channel_tracks(nl, c, plan, trunks).empty());
    if (plan.segments.size() < 2) continue;
    // Stack every segment on track 1: the pair sweep must agree with the
    // oracle on a dense fault pattern of realistic shape.
    for (ChannelSegment& seg : plan.segments) seg.track = 1;
    const auto expected =
        messages(reference_channel_tracks(nl, c, plan, trunks));
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(messages(channel_tracks(nl, c, plan, trunks)), expected);
  }
}

TEST(Geometry, FloorplanAddsUp) {
  RoutedFixture f(304);
  const ChipGeometry geometry(f.router.placement(), f.router.tech(),
                              f.channel.track_counts());
  EXPECT_NEAR(geometry.chip_height_um(), f.channel.chip_height_um(), 1e-6);
  EXPECT_NEAR(geometry.chip_width_um(),
              f.router.placement().chip_width_um(f.router.tech()), 1e-6);
  // Channels and rows alternate bottom-up without overlap.
  const auto R = f.router.placement().row_count();
  for (std::int32_t r = 0; r < R; ++r) {
    EXPECT_GT(geometry.row_bottom_um(r), geometry.channel_bottom_um(r));
    EXPECT_LT(geometry.row_bottom_um(r), geometry.channel_bottom_um(r + 1));
  }
}

TEST(Geometry, WireSegmentsInsideChipAndAxisAligned) {
  RoutedFixture f(305);
  const ChipGeometry geometry(f.router.placement(), f.router.tech(),
                              f.channel.track_counts());
  const auto wires = extract_wires(f.router, f.channel, geometry);
  EXPECT_FALSE(wires.empty());
  for (const WireSegment& seg : wires) {
    EXPECT_TRUE(seg.x1 == seg.x2 || seg.y1 == seg.y2);
    EXPECT_LE(seg.x1, seg.x2);
    EXPECT_LE(seg.y1, seg.y2);
    EXPECT_GE(seg.x1, 0.0);
    EXPECT_GE(seg.y1, 0.0);
    EXPECT_LE(seg.x2, geometry.chip_width_um() + 1e-6);
    EXPECT_LE(seg.y2, geometry.chip_height_um() + 1e-6);
    EXPECT_GT(seg.length_um(), 0.0);
  }
}

TEST(Geometry, TotalWireMatchesDetailedLengthsApproximately) {
  RoutedFixture f(306);
  const ChipGeometry geometry(f.router.placement(), f.router.tech(),
                              f.channel.track_counts());
  const auto wires = extract_wires(f.router, f.channel, geometry);
  double geometric = 0.0;
  for (const WireSegment& seg : wires) geometric += seg.length_um();
  const double reported = f.channel.total_detailed_length_um();
  // The geometric expansion uses real channel heights for the crossings
  // where the detailed-length bookkeeping uses the nominal row height, so
  // the totals differ by the channel-depth share — same order, not equal.
  EXPECT_GT(geometric, reported * 0.5);
  EXPECT_LT(geometric, reported * 2.0);
}

TEST(Geometry, SvgWritten) {
  RoutedFixture f(307);
  const std::string path = ::testing::TempDir() + "/bgr_chip_test.svg";
  write_svg(path, f.router, f.channel);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string first;
  std::getline(is, first);
  EXPECT_NE(first.find("<svg"), std::string::npos);
}

}  // namespace
}  // namespace bgr
