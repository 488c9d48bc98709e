// `paper` and `scale` workloads: repeated passes of the batch flow
// generate → route → channel → verify → write_route over a fixed set of
// designs, as bgr_route runs it, timed from outside each layer's public
// call.
#include <algorithm>
#include <memory>
#include <sstream>

#include "bgr/channel/channel_router.hpp"
#include "bgr/common/hash.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/io/route_io.hpp"
#include "bgr/route/router.hpp"
#include "bgr/verify/verifier.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

struct FlowDesign {
  std::string name;
  bgr::CircuitSpec spec;
};

struct FlowSetup {
  std::vector<FlowDesign> designs;
  std::int32_t threads = 1;
};

/// paper: the committed Table 1 circuits C1P1–C3P1, serial, whatever the
/// seed. Three circuits are too few to average out what a generator seed
/// changes: with seed-derived circuits the seed-to-seed spread of the job
/// latencies (each one circuit's time) exceeded the largest bound.
/// scale: two instances of the 32-block 10k preset on two threads, from
/// generator seeds the workload seed replaces; the second instance halves
/// the seed-to-seed spread of every figure.
FlowSetup flow_setup(const RunOptions& options) {
  FlowSetup setup;
  if (options.workload == "paper") {
    setup.designs = {{"C1P1", bgr::c1_spec()},
                     {"C2P1", bgr::c2_spec()},
                     {"C3P1", bgr::c3_spec()}};
    setup.threads = 1;
    return setup;
  }
  setup.designs = {{"10k", bgr::scale_10k_spec()},
                   {"10k.1", bgr::scale_10k_spec()}};
  setup.designs[1].spec.seed += 1;
  setup.threads = 2;
  for (FlowDesign& d : setup.designs) {
    d.spec.seed = derived_seed(options.seed, d.spec.seed);
  }
  return setup;
}

/// What one design's flow produced; compared field by field across passes.
struct DesignOutcome {
  bgr::RouteOutcome outcome;
  double delay_ps = 0.0;
  double area_mm2 = 0.0;
  double length_um = 0.0;
  std::int32_t verify_errors = 0;
  std::uint64_t route_digest = 0;
  std::int32_t constraints = 0;
};

bool same_outcome(const DesignOutcome& a, const DesignOutcome& b) {
  const bgr::RouteOutcome& x = a.outcome;
  const bgr::RouteOutcome& y = b.outcome;
  if (x.critical_delay_ps != y.critical_delay_ps ||
      x.total_length_um != y.total_length_um ||
      x.violated_constraints != y.violated_constraints ||
      x.worst_margin_ps != y.worst_margin_ps ||
      x.feed_cells_added != y.feed_cells_added ||
      x.widen_pitches != y.widen_pitches ||
      x.phases.size() != y.phases.size()) {
    return false;
  }
  for (std::size_t i = 0; i < x.phases.size(); ++i) {
    const bgr::PhaseStats& p = x.phases[i];
    const bgr::PhaseStats& q = y.phases[i];
    if (p.name != q.name || p.deletions != q.deletions ||
        p.reroutes != q.reroutes || p.worst_margin_ps != q.worst_margin_ps ||
        p.critical_delay_ps != q.critical_delay_ps ||
        p.sum_max_density != q.sum_max_density ||
        p.sta_updates != q.sta_updates ||
        p.sta_dirty_vertices != q.sta_dirty_vertices ||
        p.sta_relaxations != q.sta_relaxations ||
        p.path_searches != q.path_searches || p.path_pops != q.path_pops ||
        p.path_relaxations != q.path_relaxations) {
      return false;
    }
  }
  return a.delay_ps == b.delay_ps && a.area_mm2 == b.area_mm2 &&
         a.length_um == b.length_um && a.verify_errors == b.verify_errors &&
         a.route_digest == b.route_digest;
}

struct Pass {
  double seconds = 0.0;
  std::vector<double> design_seconds;  // each design's flow, in order
  std::vector<DesignOutcome> designs;
  CounterSnapshot counters;
  double rss_delta_mb = 0.0;
  std::int32_t span = -1;  // flow.pass span of a traced pass
};

/// One pass over every design. Inputs are copied before the clock starts
/// (the router consumes its netlist) and torn down after it stops.
Pass run_pass(const std::vector<bgr::Dataset>& designs,
              const bgr::RouterOptions& router_options, SpanLog* log) {
  std::vector<bgr::Dataset> inputs(designs);
  std::vector<std::unique_ptr<bgr::GlobalRouter>> routers;
  std::vector<std::unique_ptr<bgr::ChannelStage>> channels;
  Pass pass;
  const CounterSnapshot before = CounterSnapshot::take();
  const std::int64_t start = now_ns();
  {
    ScopedSpan pass_span(log, "flow.pass", -1);
    pass.span = pass_span.index();
    for (bgr::Dataset& input : inputs) {
      const std::int64_t design_start = now_ns();
      ScopedSpan design_span(log, "flow.design", pass_span.index(),
                             input.name);
      const std::int32_t parent = design_span.index();
      DesignOutcome out;
      out.constraints = static_cast<std::int32_t>(input.constraints.size());
      const double rss_before = current_rss_mb();
      {
        ScopedSpan span(log, "route.construct", parent, input.name);
        routers.push_back(std::make_unique<bgr::GlobalRouter>(
            input.netlist, std::move(input.placement), input.tech,
            input.constraints, router_options));
      }
      bgr::GlobalRouter& router = *routers.back();
      {
        ScopedSpan span(log, "route.run", parent, input.name);
        out.outcome = router.run();
      }
      pass.rss_delta_mb += current_rss_mb() - rss_before;
      {
        ScopedSpan span(log, "channel.run", parent, input.name);
        channels.push_back(std::make_unique<bgr::ChannelStage>(router));
        channels.back()->run();
        out.delay_ps = channels.back()->apply_and_critical_delay_ps(
            router.delay_graph(), router_options.delay_model);
      }
      const bgr::ChannelStage& channel = *channels.back();
      {
        ScopedSpan span(log, "verify.run", parent, input.name);
        const bgr::RouteVerifier verifier(router, &channel);
        for (const bgr::VerifyIssue& issue : verifier.run()) {
          if (issue.severity == bgr::VerifyIssue::Severity::kError) {
            ++out.verify_errors;
          }
        }
      }
      {
        ScopedSpan span(log, "io.write_route", parent, input.name);
        std::ostringstream os;
        bgr::write_route(os, router, channel);
        out.route_digest = bgr::fnv1a64(os.str());
      }
      out.area_mm2 = channel.chip_area_mm2();
      out.length_um = channel.total_detailed_length_um();
      pass.designs.push_back(std::move(out));
      pass.design_seconds.push_back(ns_to_s(now_ns() - design_start));
    }
  }
  pass.seconds = ns_to_s(now_ns() - start);
  pass.counters = CounterSnapshot::take().minus(before);
  channels.clear();  // a stage refers to its router
  routers.clear();
  return pass;
}

}  // namespace

void run_flow_workload(const RunOptions& options, Result& result) {
  const std::int64_t run_start = now_ns();
  const FlowSetup setup = flow_setup(options);
  SpanLog log;
  SpanLog* const trace = options.trace ? &log : nullptr;

  // Set-up: generate every design, several times; the last copy is used.
  constexpr int kSetupReps = 15;
  std::vector<bgr::Dataset> designs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<bgr::Dataset> generated;
    const std::int64_t start = now_ns();
    ScopedSpan setup_span(trace, "setup", -1);
    for (const FlowDesign& d : setup.designs) {
      ScopedSpan span(trace, "gen.generate", setup_span.index(), d.name);
      generated.push_back(bgr::generate_circuit(d.spec));
      generated.back().name = d.name;
    }
    setup_s.push_back(ns_to_s(now_ns() - start));
    designs = std::move(generated);
  }
  for (const bgr::Dataset& d : designs) {
    result.note("design " + d.name + ": " +
                std::to_string(d.netlist.cell_count()) + " cells, " +
                std::to_string(d.netlist.net_count()) + " nets, " +
                std::to_string(d.constraints.size()) + " constraints");
  }

  bgr::RouterOptions router_options;
  router_options.threads = setup.threads;

  // Passes until the next one would overrun the budget. A traced run
  // alternates untraced and traced passes so the tracing overhead shows.
  const std::size_t min_passes = options.trace ? 2 : 3;
  std::vector<Pass> passes;
  std::vector<bool> traced;
  for (;;) {
    const bool trace_this = options.trace && passes.size() % 2 == 1;
    passes.push_back(
        run_pass(designs, router_options, trace_this ? &log : nullptr));
    traced.push_back(trace_this);
    std::vector<double> seconds;
    for (const Pass& p : passes) seconds.push_back(p.seconds);
    const double elapsed = ns_to_s(now_ns() - run_start);
    if (passes.size() >= min_passes &&
        elapsed + median(seconds) > options.seconds) {
      break;
    }
  }

  // Correctness: every design verifier-clean, every pass bit-identical to
  // the first, semantic counters repeating exactly.
  const Pass& first = passes.front();
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t i = 0; i < designs.size(); ++i) {
      ++result.attempted;
      const DesignOutcome& out = passes[p].designs[i];
      if (out.verify_errors != 0 || !same_outcome(out, first.designs[i])) {
        ++result.failed;
        result.note("pass " + std::to_string(p) + " design " +
                    designs[i].name + ": verify errors " +
                    std::to_string(out.verify_errors) +
                    (same_outcome(out, first.designs[i])
                         ? ""
                         : ", outcome differs from pass 0"));
      }
    }
    for (const std::string& diff :
         passes[p].counters.semantic_diff(first.counters)) {
      result.fail("pass " + std::to_string(p) +
                  " semantic counter moved: " + diff);
    }
  }
  for (const std::string& error : log.containment_errors()) {
    result.fail(error);
  }

  if (!options.trace) {
    // A job here is one design's flow; its latency is the median over the
    // passes, which keeps one disturbed pass out of the percentiles.
    std::vector<double> pass_s;
    for (const Pass& p : passes) pass_s.push_back(p.seconds);
    std::vector<double> job_ms;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      std::vector<double> samples;
      for (const Pass& p : passes) samples.push_back(p.design_seconds[i] * 1e3);
      job_ms.push_back(median(samples));
    }
    double delay = 0.0, area = 0.0, length = 0.0, met = 0.0, total = 0.0;
    for (const DesignOutcome& out : first.designs) {
      delay += out.delay_ps;
      area += out.area_mm2;
      length += out.length_um / 1000.0;
      met += out.constraints - out.outcome.violated_constraints;
      total += out.constraints;
    }
    const double flow_s = median(pass_s);
    result.set("flow_s", flow_s, "s");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("delay_ps", delay, "ps");
    result.set("area_mm2", area, "mm2");
    result.set("length_mm", length, "mm");
    result.set("constraints_met_pct", 100.0 * ratio(met, total), "%");
    result.set("jobs_per_s", ratio(static_cast<double>(designs.size()), flow_s),
               "1/s");
    result.set("job_p50_ms", quantile(job_ms, 0.5), "ms");
    result.set("job_p90_ms", quantile(job_ms, 0.9), "ms");
    result.note("constraints met " + std::to_string(static_cast<int>(met)) +
                " of " + std::to_string(static_cast<int>(total)));
    std::string pass_list;
    for (const double s : pass_s) pass_list += " " + std::to_string(s);
    result.note("pass seconds" + pass_list + "; " +
                std::to_string(job_ms.size()) + " jobs (designs)");
    return;
  }

  // Traced run: per-layer self times from the traced passes.
  for (const auto& [name, unit] : per_layer_metrics()) {
    result.set(name, 0.0, unit);
  }
  std::map<std::string, std::vector<double>> layer;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  double rss_delta = 0.0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    rss_delta = std::max(rss_delta, pass.rss_delta_mb);
    if (!traced[p]) {
      untraced_s.push_back(pass.seconds);
      continue;
    }
    traced_s.push_back(pass.seconds);
    std::map<std::string, double> self = log.self_seconds_under(pass.span);
    double phase_sum = 0.0;
    for (const DesignOutcome& out : pass.designs) {
      for (const bgr::PhaseStats& phase : out.outcome.phases) {
        self["phase." + phase.name] += phase.seconds;
        phase_sum += phase.seconds;
      }
    }
    layer["route.construct_s"].push_back(self["route.construct"]);
    layer["route.run_s"].push_back(self["route.run"]);
    layer["route.build_s"].push_back(self["route.run"] - phase_sum);
    layer["route.initial_s"].push_back(self["phase.initial"]);
    layer["route.recover_s"].push_back(self["phase.recover_violate"]);
    layer["route.improve_delay_s"].push_back(self["phase.improve_delay"]);
    layer["route.improve_area_s"].push_back(self["phase.improve_area"]);
    layer["channel.run_s"].push_back(self["channel.run"]);
    layer["verify.run_s"].push_back(self["verify.run"]);
    layer["io.write_route_s"].push_back(self["io.write_route"]);
    layer["flow.other_s"].push_back(self["flow.pass"] + self["flow.design"]);
  }
  for (const auto& [name, samples] : layer) {
    result.set(name, median(samples), "s");
  }
  result.set("gen.generate_s", median(setup_s), "s");
  result.set("route.rss_delta_mb", rss_delta, "MB");
  result.set("trace.overhead_s", median(traced_s) - median(untraced_s), "s");
  report_counters(passes.back().counters, result);
  std::int64_t verify_errors = 0;
  std::int64_t violations = 0;
  for (const DesignOutcome& out : first.designs) {
    verify_errors += out.verify_errors;
    violations += out.outcome.violated_constraints;
  }
  result.set("verify.errors", static_cast<double>(verify_errors), "count");
  result.set("quality.violations", static_cast<double>(violations), "count");
  save_trace(log, options, first.counters, result);
}

}  // namespace perfbench
