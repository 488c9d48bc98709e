// Serve-core tests: the re-entrant RoutingSession pipeline, co-tenancy
// bit-identity on one shared ThreadPool (the N-jobs extension of the
// 1-vs-N-thread determinism guarantee), cooperative cancellation, and the
// single-shot contract on GlobalRouter::run() underneath it.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bgr/exec/thread_pool.hpp"
#include "bgr/fuzz/spec_sampler.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/serve/design_cache.hpp"
#include "bgr/serve/session.hpp"

namespace bgr {
namespace {

using serve::DesignCache;
using serve::JobRequest;
using serve::request_result_key;
using serve::RoutingSession;
using serve::SessionResult;
using serve::SessionStatus;

/// Small-but-real design text (a few hundred graph edges): big enough to
/// exercise every pipeline phase and the parallel regions, small enough
/// to route many times in a test.
std::string small_design_text(std::uint64_t seed) {
  CircuitSpec spec = sample_spec(0);
  spec.seed = seed;
  spec.name = "serve_t" + std::to_string(seed);
  spec.rows = 4;
  spec.target_cells = 60;
  spec.levels = 4;
  spec.path_constraints = 6;
  const Dataset ds = generate_circuit(spec);
  std::ostringstream os;
  write_design(os, ds);
  return os.str();
}

JobRequest small_request(const std::string& id, std::uint64_t seed) {
  JobRequest request;
  request.id = id;
  request.design_text = small_design_text(seed);
  return request;
}

SessionResult run_solo(const JobRequest& request) {
  RoutingSession session(request, nullptr, nullptr);
  return session.run();
}

TEST(RoutingSession, RunsPipelineEndToEnd) {
  const SessionResult result = run_solo(small_request("j", 1));
  ASSERT_EQ(result.status, SessionStatus::kDone);
  EXPECT_GT(result.outcome.critical_delay_ps, 0.0);
  EXPECT_GT(result.detailed_delay_ps, 0.0);
  EXPECT_GT(result.area_mm2, 0.0);
  EXPECT_GT(result.total_length_um, 0.0);
  EXPECT_EQ(result.digest.size(), 16u);
  EXPECT_EQ(result.cache, "miss");
}

TEST(RoutingSession, RunIsReentrant) {
  const JobRequest request = small_request("j", 2);
  RoutingSession session(request, nullptr, nullptr);
  const SessionResult first = session.run();
  const SessionResult second = session.run();
  ASSERT_EQ(first.status, SessionStatus::kDone);
  ASSERT_EQ(second.status, SessionStatus::kDone);
  EXPECT_EQ(first.digest, second.digest);
}

TEST(RoutingSession, FailureComesBackAsStatusNotThrow) {
  JobRequest request;
  request.id = "bad";
  request.design_text = "this is not a design file";
  RoutingSession session(request, nullptr, nullptr);
  const SessionResult result = session.run();
  EXPECT_EQ(result.status, SessionStatus::kFailed);
  EXPECT_FALSE(result.error.empty());
}

TEST(RoutingSession, VerifyCountsAreReported) {
  JobRequest request = small_request("j", 3);
  request.verify = true;
  const SessionResult result = run_solo(request);
  ASSERT_EQ(result.status, SessionStatus::kDone);
  EXPECT_EQ(result.verify_errors, 0);
  EXPECT_GE(result.verify_warnings, 0);
}

/// The acceptance gate of DESIGN.md §12: a job's outcome is bit-identical
/// whether it runs alone (serial, private) or co-tenant with N-1 other
/// jobs on one shared worker pool. Digests are FNV folds of every
/// semantic field plus the routed-result text, so equal digests mean
/// bit-identical outcomes.
void check_cotenant_bit_identity(int n_jobs) {
  // Two distinct designs alternating, so co-tenants do genuinely
  // different work (and the cache, when present, sees repeats).
  std::vector<JobRequest> requests;
  std::vector<std::string> solo_digests;
  requests.reserve(static_cast<std::size_t>(n_jobs));
  for (int i = 0; i < n_jobs; ++i) {
    requests.push_back(
        small_request("j" + std::to_string(i),
                      static_cast<std::uint64_t>(10 + i % 2)));
  }
  for (const JobRequest& request : requests) {
    const SessionResult solo = run_solo(request);
    ASSERT_EQ(solo.status, SessionStatus::kDone);
    solo_digests.push_back(solo.digest);
  }

  ThreadPool pool(3);
  std::vector<std::unique_ptr<RoutingSession>> sessions;
  for (const JobRequest& request : requests) {
    sessions.push_back(
        std::make_unique<RoutingSession>(request, nullptr, &pool));
  }
  std::vector<SessionResult> results(static_cast<std::size_t>(n_jobs));
  std::vector<std::thread> threads;
  for (int i = 0; i < n_jobs; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] =
          sessions[static_cast<std::size_t>(i)]->run();
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < n_jobs; ++i) {
    const SessionResult& result = results[static_cast<std::size_t>(i)];
    ASSERT_EQ(result.status, SessionStatus::kDone) << "job " << i;
    EXPECT_EQ(result.digest, solo_digests[static_cast<std::size_t>(i)])
        << "job " << i << " diverged from its solo run";
  }
}

TEST(RoutingSession, CoTenantBitIdentityTwoJobs) {
  check_cotenant_bit_identity(2);
}

TEST(RoutingSession, CoTenantBitIdentityEightJobs) {
  check_cotenant_bit_identity(8);
}

TEST(RoutingSession, CachedResubmissionIsBitIdentical) {
  DesignCache cache;
  const JobRequest request = small_request("j", 4);
  RoutingSession first(request, &cache, nullptr);
  const SessionResult a = first.run();
  ASSERT_EQ(a.status, SessionStatus::kDone);
  EXPECT_EQ(a.cache, "miss");

  JobRequest repeat = request;
  repeat.id = "j-again";  // id is not part of the result key
  RoutingSession second(repeat, &cache, nullptr);
  const SessionResult b = second.run();
  ASSERT_EQ(b.status, SessionStatus::kDone);
  EXPECT_EQ(b.cache, "result-hit");
  EXPECT_EQ(b.digest, a.digest);

  // Different options must not hit the result level — but still reuse
  // the parsed design.
  JobRequest changed = request;
  changed.options.improvement_passes = 5;
  RoutingSession third(changed, &cache, nullptr);
  const SessionResult c = third.run();
  ASSERT_EQ(c.status, SessionStatus::kDone);
  EXPECT_EQ(c.cache, "design-hit");
}

TEST(RoutingSession, CancelBeforeRunShortCircuits) {
  const JobRequest request = small_request("j", 5);
  RoutingSession session(request, nullptr, nullptr);
  session.cancel();
  const SessionResult cancelled = session.run();
  EXPECT_EQ(cancelled.status, SessionStatus::kCancelled);

  // Cancellation is sticky until reset(), then the session runs normally.
  const SessionResult still = session.run();
  EXPECT_EQ(still.status, SessionStatus::kCancelled);
  session.reset();
  const SessionResult done = session.run();
  EXPECT_EQ(done.status, SessionStatus::kDone);
}

TEST(RoutingSession, MidRunCancelStopsAtPhaseBoundary) {
  JobRequest request = small_request("j", 6);
  RoutingSession* handle = nullptr;
  // First deletion of the initial-routing loop requests cancellation
  // (from "another thread"'s point of view: the flag is atomic); the
  // pipeline must stop at the next phase boundary, not finish.
  request.options.deletion_observer = [&handle](NetId, std::int32_t) {
    if (handle != nullptr) handle->cancel();
  };
  RoutingSession session(request, nullptr, nullptr);
  handle = &session;
  const SessionResult result = session.run();
  EXPECT_EQ(result.status, SessionStatus::kCancelled);
}

TEST(RoutingSession, SharedPoolStaysHealthyAfterCancel) {
  ThreadPool pool(3);
  JobRequest doomed = small_request("a", 7);
  RoutingSession* handle = nullptr;
  doomed.options.deletion_observer = [&handle](NetId, std::int32_t) {
    if (handle != nullptr) handle->cancel();
  };
  RoutingSession cancelled(doomed, nullptr, &pool);
  handle = &cancelled;
  EXPECT_EQ(cancelled.run().status, SessionStatus::kCancelled);

  // The pool must be fully usable afterwards, and results on it must
  // still match the solo run.
  const JobRequest request = small_request("b", 8);
  const SessionResult solo = run_solo(request);
  RoutingSession after(request, nullptr, &pool);
  const SessionResult result = after.run();
  ASSERT_EQ(result.status, SessionStatus::kDone);
  EXPECT_EQ(result.digest, solo.digest);
}

TEST(RequestResultKey, SeparatesOptionsAndDesigns) {
  const JobRequest a = small_request("j", 9);
  JobRequest b = a;
  b.options.improvement_passes = 5;
  JobRequest c = a;
  c.constrained = false;
  const std::uint64_t design_key = DesignCache::text_key(a.design_text);
  const std::uint64_t other_key = DesignCache::text_key("something else");
  EXPECT_NE(request_result_key(a, design_key),
            request_result_key(b, design_key));
  EXPECT_NE(request_result_key(a, design_key),
            request_result_key(c, design_key));
  EXPECT_NE(request_result_key(a, design_key),
            request_result_key(a, other_key));
  EXPECT_EQ(request_result_key(a, design_key),
            request_result_key(a, design_key));
}

TEST(RoutingSession, EachEngineGetsItsOwnResultCacheEntry) {
  // Two jobs differing only in `--path-search dijkstra` vs `cached` must
  // land in distinct result-cache slots (the key mixes the engine). The
  // engines route bit-identically, but the digest also covers the
  // per-phase search effort (`path_pops`), so each engine's result is its
  // own answer.
  DesignCache cache;
  const JobRequest cached = small_request("a", 12);
  JobRequest dijkstra = cached;
  dijkstra.options.path_search = PathSearchBackend::kDijkstra;

  const std::uint64_t design_key = DesignCache::text_key(cached.design_text);
  EXPECT_NE(request_result_key(cached, design_key),
            request_result_key(dijkstra, design_key));

  RoutingSession first(cached, &cache, nullptr);
  const SessionResult a = first.run();
  ASSERT_EQ(a.status, SessionStatus::kDone);
  EXPECT_EQ(a.cache, "miss");

  // Same design text: the parsed dataset is reused, the result is not.
  RoutingSession second(dijkstra, &cache, nullptr);
  const SessionResult s = second.run();
  ASSERT_EQ(s.status, SessionStatus::kDone);
  EXPECT_EQ(s.cache, "design-hit");
  EXPECT_NE(s.digest, a.digest);

  // Resubmitting the dijkstra job hits its own (dijkstra-built) entry.
  RoutingSession repeat(dijkstra, &cache, nullptr);
  const SessionResult again = repeat.run();
  ASSERT_EQ(again.status, SessionStatus::kDone);
  EXPECT_EQ(again.cache, "result-hit");
  EXPECT_EQ(again.digest, s.digest);
}

TEST(DesignCache, UsageReturnsToBaselineAfterFullEviction) {
  // Regression: the byte gauge is maintained incrementally, so eviction
  // must release exactly what insertion charged, or usage() drifts away
  // from reality.
  DesignCache cache(2, 2);
  const DesignCache::Usage empty = cache.usage();
  EXPECT_EQ(empty.dataset_entries, 0);
  EXPECT_EQ(empty.dataset_bytes, 0);
  EXPECT_EQ(empty.result_entries, 0);
  EXPECT_EQ(empty.result_bytes, 0);

  // Overfill both levels so the LRU evicts while we insert.
  for (std::uint64_t seed = 20; seed < 25; ++seed) {
    const std::string text = small_design_text(seed);
    (void)cache.dataset_for_text(text, "test");
    cache.store_result(seed, std::make_shared<const SessionResult>());
  }
  const DesignCache::Usage full = cache.usage();
  EXPECT_EQ(full.dataset_entries, 2);
  EXPECT_EQ(full.result_entries, 2);
  EXPECT_GT(full.dataset_bytes, 0);
  EXPECT_GT(full.result_bytes, 0);

  cache.clear();
  const DesignCache::Usage cleared = cache.usage();
  EXPECT_EQ(cleared.dataset_entries, 0);
  EXPECT_EQ(cleared.dataset_bytes, 0);
  EXPECT_EQ(cleared.result_entries, 0);
  EXPECT_EQ(cleared.result_bytes, 0);
}

}  // namespace
}  // namespace bgr
