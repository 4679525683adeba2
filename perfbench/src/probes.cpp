// Layer probes of the traced run. Each probe calls one layer's public
// functions on the workload's own kernels, inside spans, after the timed
// phase — so the timed numbers never include probe work.
//
//   walk    seeded accepted-move walk: ActionSet::bind/update,
//           DeltaContext::bind/neighborHash/accept, allActions and
//           suggestExpertAction on every state of the walk
//   replay  History::replay of every prefix of the heuristic pass's
//           sequence (the sequence the heuristic structure starts from and
//           mutates), Program::validate on each result
//   build   KernelInfo::build and canonicalHash (serve's handle calls both
//           on every request)
//   codegen generateC on the schedule the workload produced
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "codegen/c_codegen.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "search/delta.h"
#include "search/pass.h"
#include "search/search.h"
#include "support/rng.h"
#include "transform/action_set.h"
#include "transform/history.h"

namespace perfbench {

namespace pd = perfdojo;

const std::vector<const pd::machines::Machine*>& benchMachines() {
  static const std::vector<const pd::machines::Machine*> ms = {
      &pd::machines::snitch(), &pd::machines::xeon(), &pd::machines::gh200(),
      &pd::machines::mi300a()};
  return ms;
}

namespace {

double meanUs(const std::map<std::string, SpanTotals>& t, const char* name) {
  auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0;
  return it->second.total_us / static_cast<double>(it->second.count);
}

std::int64_t countOf(const std::map<std::string, SpanTotals>& t,
                     const char* name) {
  auto it = t.find(name);
  return it == t.end() ? 0 : it->second.count;
}

double frac(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Seeded random walk of accepted moves through the delta and action-index
/// layers. Returns false (and describes it) if the maintained action list or
/// the maintained hash drifted from a fresh computation at the end.
bool walkProbe(const ProbeInput& in, pd::Rng& rng, int steps, int max_hashed,
               Tracer& tracer, pd::search::DeltaStats& dstats,
               pd::transform::ActionSetStats& astats, std::string& detail) {
  const auto& caps = in.machine->caps();
  pd::search::DeltaContext delta;
  pd::transform::ActionSet aset;
  {
    ScopedSpan s(tracer, "delta.bind");
    delta.bind(in.kernel);
  }
  {
    ScopedSpan s(tracer, "transform.action_set_bind");
    aset.bind(in.kernel, caps);
  }
  for (int step = 0; step < steps; ++step) {
    const pd::ir::Program& cur = delta.base();
    {
      ScopedSpan s(tracer, "transform.all_actions");
      (void)pd::transform::allActions(cur, caps);
    }
    {
      pd::Rng suggest_rng(rng.next());
      pd::transform::Action a;
      ScopedSpan s(tracer, "search.suggest");
      (void)pd::search::suggestExpertAction(cur, caps, suggest_rng, a);
    }
    const std::vector<pd::transform::Action> actions = aset.actions();
    if (actions.empty()) break;
    // Price a seeded sample of the neighbors, as a walk's proposals would.
    const std::size_t n = std::min<std::size_t>(
        actions.size(), static_cast<std::size_t>(max_hashed));
    const std::size_t offset = rng.uniform(actions.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = actions[(offset + i) % actions.size()];
      ScopedSpan s(tracer, "delta.neighbor_hash");
      (void)delta.neighborHash(a);
    }
    const auto& pick = actions[rng.uniform(actions.size())];
    pd::ir::MutationSummary mut;
    {
      ScopedSpan s(tracer, "delta.accept");
      delta.accept(pick, &mut);
    }
    {
      ScopedSpan s(tracer, "transform.action_set_update");
      aset.update(delta.base(), mut);
    }
  }
  dstats.neighbors_hashed += delta.stats().neighbors_hashed;
  dstats.whole_tree_fallbacks += delta.stats().whole_tree_fallbacks;
  dstats.accepts += delta.stats().accepts;
  astats.updates += aset.stats().updates;
  astats.full_rebuilds += aset.stats().full_rebuilds;
  if (!aset.selfCheck(delta.base(), &detail)) return false;
  if (delta.baseHash() != pd::ir::canonicalHash(delta.base())) {
    detail = "maintained hash differs from canonicalHash after the walk";
    return false;
  }
  return true;
}

}  // namespace

void runLayerProbes(const std::vector<ProbeInput>& inputs, std::uint64_t seed,
                    double scale, Tracer& tracer, Report& report) {
  const int walk_steps = std::max(4, static_cast<int>(24 * scale));
  const int max_hashed = 48;
  pd::search::DeltaStats dstats;
  pd::transform::ActionSetStats astats;
  std::int64_t replayed_steps = 0;
  std::uint64_t run = kProbeRun;

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ProbeInput& in = inputs[i];
    const std::string label = in.info->label + "/" + in.machine->name();
    pd::Rng rng(mixSeed(seed, 7000 + i));

    Tracer::setRun(run++);
    std::string detail;
    const bool walk_ok = walkProbe(in, rng, walk_steps, max_hashed, tracer,
                                   dstats, astats, detail);
    report.check("probe.walk_indices_match_fresh", walk_ok,
                 label + ": " + detail);

    Tracer::setRun(run++);
    const auto pass = pd::search::heuristicPass(in.kernel, *in.machine);
    std::vector<pd::transform::Step> steps(pass.steps().begin(),
                                           pass.steps().end());
    bool replay_ok = true;
    for (std::size_t len = 1; len <= steps.size(); ++len) {
      const std::vector<pd::transform::Step> prefix(
          steps.begin(), steps.begin() + static_cast<std::ptrdiff_t>(len));
      pd::transform::History::ReplayResult rr;
      std::optional<pd::ir::Program> p;
      {
        ScopedSpan s(tracer, "transform.replay");
        p = pd::transform::History::replay(in.kernel, prefix, rr);
      }
      if (!p) {
        replay_ok = false;
        detail = rr.message;
        break;
      }
      replayed_steps += static_cast<std::int64_t>(len);
      try {
        ScopedSpan s(tracer, "ir.validate");
        p->validate();
      } catch (const std::exception& e) {
        replay_ok = false;
        detail = e.what();
      }
    }
    report.check("probe.replay_prefixes_valid", replay_ok,
                 label + ": " + detail);

    Tracer::setRun(run++);
    for (int rep = 0; rep < 3; ++rep) {
      pd::ir::Program built;
      {
        ScopedSpan s(tracer, "kernels.build");
        built = in.small ? in.info->build_small() : in.info->build();
      }
      ScopedSpan s(tracer, "ir.canonical_hash");
      (void)pd::ir::canonicalHash(built);
    }
    {
      ScopedSpan s(tracer, "codegen.generate_c");
      const std::string c = pd::codegen::generateC(in.result, "perfbench_probe");
      report.check("probe.generate_c_nonempty", !c.empty(), label);
    }
  }
  Tracer::setRun(0);

  const auto t = tracer.totals(kProbeRun, run);
  const std::int64_t hashed = countOf(t, "delta.neighbor_hash");
  report.metric("delta.neighbor_hash_us", meanUs(t, "delta.neighbor_hash"),
                "us", hashed);
  report.metric("delta.accept_us", meanUs(t, "delta.accept"), "us",
                countOf(t, "delta.accept"));
  report.metric("delta.whole_tree_frac",
                frac(dstats.whole_tree_fallbacks, dstats.neighbors_hashed),
                "ratio", dstats.neighbors_hashed);
  report.metric("transform.action_set_update_us",
                meanUs(t, "transform.action_set_update"), "us",
                countOf(t, "transform.action_set_update"));
  report.metric("transform.full_rebuild_frac",
                frac(astats.full_rebuilds, astats.updates), "ratio",
                astats.updates);
  report.metric("transform.all_actions_us", meanUs(t, "transform.all_actions"),
                "us", countOf(t, "transform.all_actions"));
  report.metric("search.suggest_us", meanUs(t, "search.suggest"), "us",
                countOf(t, "search.suggest"));
  const auto rp = t.find("transform.replay");
  const double replay_total = rp == t.end() ? 0 : rp->second.total_us;
  report.metric("transform.replay_us", meanUs(t, "transform.replay"), "us",
                countOf(t, "transform.replay"));
  report.metric("transform.replay_step_us",
                replayed_steps ? replay_total / static_cast<double>(replayed_steps)
                               : 0.0,
                "us", replayed_steps);
  report.metric("ir.validate_us", meanUs(t, "ir.validate"), "us",
                countOf(t, "ir.validate"));
  report.metric("ir.canonical_hash_us", meanUs(t, "ir.canonical_hash"), "us",
                countOf(t, "ir.canonical_hash"));
  report.metric("kernels.build_us", meanUs(t, "kernels.build"), "us",
                countOf(t, "kernels.build"));
  report.metric("codegen.generate_c_us", meanUs(t, "codegen.generate_c"), "us",
                countOf(t, "codegen.generate_c"));
}

void reportModelLayers(const Tracer& tracer, std::uint64_t lo, std::uint64_t hi,
                       const char* op_span, Report& report) {
  const auto t = tracer.totals(lo, hi);
  const auto op = t.find(op_span);
  const std::int64_t ops = op == t.end() ? 0 : op->second.count;
  const double op_us = op == t.end() ? 0 : op->second.total_us;
  const auto ev = t.find("machines.evaluate");
  const std::int64_t calls = ev == t.end() ? 0 : ev->second.count;
  const double ev_us = ev == t.end() ? 0 : ev->second.total_us;
  report.metric("machines.evaluate_calls",
                ops ? static_cast<double>(calls) / static_cast<double>(ops) : 0,
                "count", calls);
  report.metric("machines.evaluate_us", meanUs(t, "machines.evaluate"), "us",
                calls);
  report.metric("machines.evaluate_share", op_us > 0 ? ev_us / op_us : 0,
                "ratio", ops);
  report.metric("machines.lower_bound_us", meanUs(t, "machines.lower_bound"),
                "us", countOf(t, "machines.lower_bound"));
}

void finishTrace(const Options& opt, const Tracer& tracer, Report& report) {
  struct Layer {
    const char* name;
    const char* unit;
  };
  static const Layer kLayers[] = {
      {"machines.evaluate_calls", "count"},
      {"machines.evaluate_us", "us"},
      {"machines.evaluate_share", "ratio"},
      {"machines.lower_bound_us", "us"},
      {"search.cache_hit_frac", "ratio"},
      {"search.unique_frac", "ratio"},
      {"search.primed_frac", "ratio"},
      {"search.self_us_per_candidate", "us"},
      {"exact.states", "count"},
      {"exact.expanded", "count"},
      {"exact.pruned_frac", "ratio"},
      {"parallel_eval.scaling", "ratio"},
      {"libgen.tune_one_ms", "ms"},
      {"serve.overhead_us", "us"},
      {"serve.wire_us", "us"},
      {"serve.warm_hit_frac", "ratio"},
      {"serve.dedupe_joins", "count"},
      {"serve.store_errors", "count"},
      {"serve.requests_per_s", "1/s"},
      {"serve.warm_p50_us", "us"},
      {"serve.warm_p99_us", "us"},
      {"serve.cold_p50_ms", "ms"},
      {"serve.cold_p99_ms", "ms"},
      {"serve.restart_ms", "ms"},
      {"evalcache.hit_frac", "ratio"},
      {"diskstore.put_us", "us"},
      {"diskstore.get_us", "us"},
      {"diskstore.open_ms", "ms"},
      {"diskstore.bytes", "bytes"},
  };
  for (const Layer& l : kLayers)
    if (!report.has(l.name)) report.metric(l.name, 0.0, l.unit, 0);
  report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
  const std::string path = opt.work_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  report.check("trace.spans_written", tracer.write(path), path);
  report.check("trace.span_buffer_held_all", tracer.dropped() == 0,
               std::to_string(tracer.dropped()) + " spans dropped");
}

}  // namespace perfbench
