// Wire-protocol and scheduler tests: strict request parsing that never
// throws, single-line response framing, admission control (bounded queue,
// duplicate ids, shutdown), round-robin fairness across clients, and
// queued-job cancellation.
#include <gtest/gtest.h>

#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bgr/fuzz/spec_sampler.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/serve/design_cache.hpp"
#include "bgr/serve/scheduler.hpp"

namespace bgr {
namespace {

using serve::Admission;
using serve::CancelOutcome;
using serve::ControlRequest;
using serve::DesignCache;
using serve::JobRequest;
using serve::JobScheduler;
using serve::ParsedRequest;
using serve::SchedulerConfig;
using serve::parse_request_line;

// ---------------------------------------------------------------- parser

TEST(ServeProtocol, ParsesJobWithOptions) {
  const ParsedRequest parsed = parse_request_line(
      "{\"id\":\"j1\",\"dataset\":\"C1P1\",\"options\":{\"rc\":true,"
      "\"sequential\":true,\"improvement_passes\":3,"
      "\"path_search\":\"dijkstra\",\"incremental_sta\":false,"
      "\"unconstrained\":true},\"verify\":true,\"route_text\":true,"
      "\"report\":true}");
  ASSERT_EQ(parsed.kind, ParsedRequest::Kind::kJob) << parsed.error;
  EXPECT_EQ(parsed.job.id, "j1");
  EXPECT_EQ(parsed.job.preset, "C1P1");
  EXPECT_EQ(parsed.job.options.delay_model, DelayModel::kElmoreRC);
  EXPECT_FALSE(parsed.job.options.concurrent_initial);
  EXPECT_EQ(parsed.job.options.improvement_passes, 3);
  EXPECT_EQ(parsed.job.options.path_search, PathSearchBackend::kDijkstra);
  EXPECT_FALSE(parsed.job.options.incremental_sta);
  EXPECT_FALSE(parsed.job.constrained);
  EXPECT_TRUE(parsed.job.verify);
  EXPECT_TRUE(parsed.job.want_route_text);
  EXPECT_TRUE(parsed.job.want_report);

  // `astar` is the old spelling of the cached engine: both parse to the
  // same backend, so old requests keep their result key.
  for (const char* name : {"astar", "cached"}) {
    const ParsedRequest engine = parse_request_line(
        std::string("{\"id\":\"j\",\"dataset\":\"C1P1\",\"options\":"
                    "{\"path_search\":\"") +
        name + "\"}}");
    ASSERT_EQ(engine.kind, ParsedRequest::Kind::kJob) << engine.error;
    EXPECT_EQ(engine.job.options.path_search, PathSearchBackend::kCached)
        << name;
  }
}

TEST(ServeProtocol, ParsesControlRequests) {
  const ParsedRequest ping = parse_request_line("{\"ping\":true}");
  ASSERT_EQ(ping.kind, ParsedRequest::Kind::kControl);
  EXPECT_EQ(ping.control.kind, ControlRequest::Kind::kPing);

  const ParsedRequest cancel = parse_request_line("{\"cancel\":\"j7\"}");
  ASSERT_EQ(cancel.kind, ParsedRequest::Kind::kControl);
  EXPECT_EQ(cancel.control.kind, ControlRequest::Kind::kCancel);
  EXPECT_EQ(cancel.control.target, "j7");

  const ParsedRequest shutdown = parse_request_line("{\"shutdown\":true}");
  ASSERT_EQ(shutdown.kind, ParsedRequest::Kind::kControl);
  EXPECT_EQ(shutdown.control.kind, ControlRequest::Kind::kShutdown);
}

TEST(ServeProtocol, RejectsMalformedRequestsWithoutThrowing) {
  const char* cases[] = {
      "",                                     // empty
      "not json at all",                      // not JSON
      "[1,2,3]",                              // not an object
      "{\"id\":\"j\"}",                       // no design source
      "{\"dataset\":\"C1P1\"}",               // no id
      "{\"id\":\"\",\"dataset\":\"C1P1\"}",   // empty id
      "{\"id\":\"j\",\"dataset\":\"C1P1\",\"design\":\"x\"}",  // two sources
      "{\"id\":\"j\",\"dataset\":\"C1P1\",\"bogus\":1}",   // unknown key
      "{\"id\":\"j\",\"dataset\":\"C1P1\","
      "\"options\":{\"bogus\":true}}",        // unknown option
      "{\"id\":\"j\",\"dataset\":\"C1P1\","
      "\"options\":{\"improvement_passes\":-1}}",  // out-of-range option
      "{\"id\":\"j\",\"dataset\":\"C1P1\","
      "\"options\":{\"path_search\":\"bfs\"}}",    // bad enum
      "{\"id\":\"j\",\"dataset\":\"C1P1\","
      "\"options\":{\"path_search\":\"steiner\"}}",  // not an engine
      "{\"id\":\"j\",\"dataset\":\"C1P1\","
      "\"options\":{\"lookahead\":\"map\"}}",    // removed option
      "{\"cancel\":\"j\",\"ping\":true}",     // control with extra field
      "{\"id\":\"j\",\"dataset\":\"C1P1\"",   // truncated JSON
      "{\"id\":17,\"dataset\":\"C1P1\"}",     // wrong type
  };
  for (const char* line : cases) {
    const ParsedRequest parsed = parse_request_line(line);
    EXPECT_EQ(parsed.kind, ParsedRequest::Kind::kError) << line;
    EXPECT_FALSE(parsed.error.empty()) << line;
  }
  const ParsedRequest lookahead = parse_request_line(
      "{\"id\":\"j\",\"dataset\":\"C1P1\","
      "\"options\":{\"lookahead\":\"map\"}}");
  EXPECT_NE(lookahead.error.find("unknown option 'lookahead'"),
            std::string::npos)
      << lookahead.error;
  const ParsedRequest removed = parse_request_line(
      "{\"id\":\"j\",\"dataset\":\"C1P1\","
      "\"options\":{\"path_search\":\"steiner\"}}");
  EXPECT_NE(removed.error.find("\"cached\" or \"dijkstra\""),
            std::string::npos)
      << removed.error;
}

TEST(ServeProtocol, ResponsesSerializeToOneLine) {
  JsonValue event = serve::make_event("rejected", "j1");
  event.set("reason", "diagnostic with\nnewline and \"quotes\"");
  const std::string line = serve::response_line(event);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const JsonValue back = json_parse(line);
  EXPECT_EQ(back.at("event").as_string(), "rejected");
  EXPECT_EQ(back.at("id").as_string(), "j1");
}

// ------------------------------------------------------------- scheduler

/// Thread-safe event log shared with scheduler runner threads.
struct EventLog {
  std::mutex mutex;
  std::vector<std::pair<std::string, JsonValue>> events;

  JobScheduler::Emit emitter() {
    return [this](const std::string& client, const JsonValue& event) {
      std::lock_guard<std::mutex> lock(mutex);
      events.emplace_back(client, event);
    };
  }
  /// (client, id) of every event named `name`, in emission order.
  std::vector<std::pair<std::string, std::string>> of(
      const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [client, event] : events) {
      if (event.at("event").as_string() == name) {
        out.emplace_back(client, event.at("id").as_string());
      }
    }
    return out;
  }
};

JobRequest tiny_job(const std::string& id) {
  static const std::string text = [] {
    CircuitSpec spec = sample_spec(0);
    spec.rows = 3;
    spec.target_cells = 24;
    spec.levels = 3;
    spec.path_constraints = 2;
    const Dataset ds = generate_circuit(spec);
    std::ostringstream os;
    write_design(os, ds);
    return os.str();
  }();
  JobRequest request;
  request.id = id;
  request.design_text = text;
  return request;
}

TEST(JobScheduler, AdmissionRejectsBeyondQueueCapacity) {
  EventLog log;
  DesignCache cache;
  SchedulerConfig config;
  config.max_jobs = 1;
  config.queue_capacity = 2;
  config.start_paused = true;  // nothing drains; the queue must fill
  JobScheduler scheduler(config, &cache, log.emitter());

  EXPECT_TRUE(scheduler.submit("c", tiny_job("a")).accepted);
  EXPECT_TRUE(scheduler.submit("c", tiny_job("b")).accepted);
  const Admission third = scheduler.submit("c", tiny_job("c"));
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.reason, "queue_full");

  scheduler.resume();
  scheduler.drain_and_stop();
  const JobScheduler::Totals totals = scheduler.totals();
  EXPECT_EQ(totals.accepted, 2);
  EXPECT_EQ(totals.rejected, 1);
  EXPECT_EQ(totals.completed, 2);
}

TEST(JobScheduler, AdmissionRejectsDuplicateIds) {
  EventLog log;
  DesignCache cache;
  SchedulerConfig config;
  config.start_paused = true;
  JobScheduler scheduler(config, &cache, log.emitter());

  EXPECT_TRUE(scheduler.submit("c", tiny_job("a")).accepted);
  const Admission dup = scheduler.submit("c", tiny_job("a"));
  EXPECT_FALSE(dup.accepted);
  EXPECT_EQ(dup.reason, "duplicate_id");
  // The same id from a different client is a different job.
  EXPECT_TRUE(scheduler.submit("other", tiny_job("a")).accepted);

  scheduler.resume();
  scheduler.drain_and_stop();
}

TEST(JobScheduler, RoundRobinInterleavesClients) {
  EventLog log;
  DesignCache cache;
  SchedulerConfig config;
  config.max_jobs = 1;  // single runner makes the serve order observable
  config.start_paused = true;
  JobScheduler scheduler(config, &cache, log.emitter());

  // Client A floods three jobs before B submits one; fairness requires B
  // to be served after A's first job, not after A's backlog.
  EXPECT_TRUE(scheduler.submit("a", tiny_job("a1")).accepted);
  EXPECT_TRUE(scheduler.submit("a", tiny_job("a2")).accepted);
  EXPECT_TRUE(scheduler.submit("a", tiny_job("a3")).accepted);
  EXPECT_TRUE(scheduler.submit("b", tiny_job("b1")).accepted);
  scheduler.resume();
  scheduler.drain_and_stop();

  const auto started = log.of("started");
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started[0].second, "a1");
  EXPECT_EQ(started[1].second, "b1");  // b preempts a's backlog
  EXPECT_EQ(started[2].second, "a2");
  EXPECT_EQ(started[3].second, "a3");
}

TEST(JobScheduler, CancelsQueuedJobWithoutRunningIt) {
  EventLog log;
  DesignCache cache;
  SchedulerConfig config;
  config.max_jobs = 1;
  config.start_paused = true;
  JobScheduler scheduler(config, &cache, log.emitter());

  EXPECT_TRUE(scheduler.submit("c", tiny_job("a")).accepted);
  EXPECT_TRUE(scheduler.submit("c", tiny_job("b")).accepted);
  EXPECT_EQ(scheduler.cancel("c", "b"), CancelOutcome::kCancelledQueued);
  EXPECT_EQ(scheduler.cancel("c", "nope"), CancelOutcome::kUnknown);

  scheduler.resume();
  scheduler.drain_and_stop();
  const auto started = log.of("started");
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0].second, "a");
  const auto cancelled = log.of("cancelled");
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0].second, "b");
  EXPECT_EQ(scheduler.totals().cancelled, 1);
  EXPECT_EQ(scheduler.totals().completed, 1);
}

TEST(JobScheduler, EveryAcceptedJobGetsExactlyOneTerminalEvent) {
  EventLog log;
  DesignCache cache;
  SchedulerConfig config;
  config.max_jobs = 2;
  config.pool_workers = 2;
  JobScheduler scheduler(config, &cache, log.emitter());

  const int kJobs = 6;
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(
        scheduler.submit("c", tiny_job("j" + std::to_string(i))).accepted);
  }
  scheduler.drain_and_stop();

  EXPECT_EQ(log.of("started").size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(log.of("done").size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(scheduler.totals().completed, kJobs);
  // Repeat submissions of one design hit the warm cache: first job
  // parses, the rest reuse (result- or dataset-level depending on
  // timing; the total is schedule-independent).
  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.dataset_hits + stats.result_hits, kJobs - 1);
  EXPECT_EQ(stats.dataset_misses, 1);
}

}  // namespace
}  // namespace bgr
