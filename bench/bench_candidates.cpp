// End-to-end candidate-throughput benchmark for the tuning hot path.
//
// Runs edges-structure simulated annealing over two deep-tree Table-3
// kernels twice:
//
//   modern — the shipping pipeline (runSearch with SearchConfig defaults):
//            memo table + arena-backed delta pricing + an ActionSet
//            enumerated per accepted state + arena rebase-on-accept
//   legacy — a reference loop local to this bench, written from the
//            definitions: the same memo table, but every candidate priced by
//            apply-copying the tree and re-rendering its canonical text, and
//            a fresh allActions after each accepted move
//
// A third leg times neighbor *enumeration* alone along a deterministic
// accepted-move trajectory: ActionSet::update, which builds one
// ir::ProgramIndex per state and shares it across every transform, against a
// bench-local reference that calls each transform's
// findApplicable(const Program&, caps) and so builds one index per
// transform. The shared index's win is gated as a host-independent ratio
// (`shared_index_speedup`) even where end-to-end wall is dominated by
// pricing.
//
// What this gate means: end-to-end throughput on the in-tree analytic models
// is dominated by neighbor enumeration and pricing, and the modern stack's
// per-candidate pricing win (gated at >= 5x by bench_micro_hash) shows up
// here as a wall-clock ratio. The gated metric is that ratio: modern_wall /
// legacy_wall may not drift above the checked-in ratio by more than the
// band. A pricing-stack regression (a rebase that went quadratic, a probe
// that started re-rendering) lands directly on this ratio, and a ratio of
// two same-host timings is host-speed independent, so a slow CI runner
// cannot fake a pass or a fail.
//
// Timing discipline (the same warmup + median-of-N the hash microbench
// uses): one warm-up run per pipeline, then the median wall of kReps
// interleaved repetitions. Both pipelines make the same decisions — the
// bench exits 2 if their evaluation counts or best costs differ — so
// medians compare like with like.
//
//   bench_candidates [--out BENCH_candidates.json]
//                    [--check bench/BENCH_candidates_baseline.json]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ir/incremental.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/evalcache.h"
#include "search/search.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/telemetry.h"
#include "transform/action_set.h"

namespace perfdojo {
namespace {

constexpr int kReps = 5;
constexpr int kEnumReps = 41;  // an enumeration rep is milliseconds
constexpr int kBudget = 2000;

search::SearchConfig modernConfig() {
  search::SearchConfig cfg;
  cfg.method = search::SearchMethod::SimulatedAnnealing;
  cfg.structure = search::SpaceStructure::Edges;
  cfg.budget = kBudget;
  cfg.max_steps = 64;  // deep walks: realistic tree sizes for the rehash
  cfg.seed = 7;
  return cfg;
}

struct LegacyRun {
  std::int64_t evals = 0;
  double best_runtime = 0;
  double wall_ms = 0;
};

/// The legacy leg: the annealing walk of runSearch, decision for decision,
/// priced the copy way. Same per-state cost memo and same shared memo
/// table keyed by canonicalHash, so it differs from the modern pipeline only
/// in how a candidate's identity is computed and its action list obtained.
LegacyRun legacyAnnealing(const ir::Program& kernel,
                          const machines::Machine& m,
                          const search::SearchConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  search::EvalCache cache;
  Rng rng(cfg.seed);
  const double base_rt = cache.evaluate(m, kernel);
  LegacyRun r;
  r.evals = 1;
  r.best_runtime = base_rt;
  ir::Program cur = kernel;
  double cur_rt = base_rt;
  double temp = cfg.sa_t0;
  int steps = 0;
  auto actions = transform::allActions(cur, m.caps());
  std::vector<double> memo(actions.size(), -1.0);
  while (r.evals < cfg.budget) {
    if (actions.empty() || steps >= cfg.max_steps) {
      cur = kernel;
      cur_rt = base_rt;
      steps = 0;
      actions = transform::allActions(cur, m.caps());
      memo.assign(actions.size(), -1.0);
      if (actions.empty()) break;
      continue;
    }
    const std::size_t ai = rng.uniform(actions.size());
    const bool memo_hit = memo[ai] >= 0;
    ir::Program cand;
    if (!memo_hit) {
      cand = actions[ai].apply(cur);
      memo[ai] = cache.evaluate(m, cand);
    }
    const double rt = memo[ai];
    ++r.evals;
    if (std::isfinite(rt) && rt >= 0 && rt < r.best_runtime)
      r.best_runtime = rt;
    if (search::saAccept((rt - cur_rt) / base_rt, temp, rng)) {
      cur = memo_hit ? actions[ai].apply(cur) : std::move(cand);
      cur_rt = rt;
      ++steps;
      actions = transform::allActions(cur, m.caps());
      memo.assign(actions.size(), -1.0);
    }
    temp *= cfg.sa_decay;
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

struct Measurement {
  std::vector<std::string> kernels;
  std::int64_t candidates = 0;  // per pipeline, summed over kernels
  double modern_ms = 0;         // median wall, summed over kernels
  double legacy_ms = 0;
  // Enumeration leg: actions enumerated along the accepted-move trajectory,
  // one shared index per state vs one index per transform (identical
  // counts: both are the full enumeration).
  std::int64_t enum_actions = 0;
  double enum_shared_ms = 0;
  double enum_per_transform_ms = 0;
  /// Per-transform wall over shared wall of each rep, over both kernels.
  std::vector<double> enum_ratios;
  double modern_cps() const {
    return modern_ms > 0 ? 1e3 * static_cast<double>(candidates) / modern_ms
                         : 0;
  }
  double legacy_cps() const {
    return legacy_ms > 0 ? 1e3 * static_cast<double>(candidates) / legacy_ms
                         : 0;
  }
  /// Modern wall over legacy wall: the bounded cost of the pricing stack on
  /// analytic models. Lower is better; 1.0 is parity.
  double overhead() const {
    return legacy_ms > 0 && modern_ms > 0 ? modern_ms / legacy_ms : 0;
  }
  /// Enumeration-only win: the median over reps of per-transform-index
  /// wall over shared-index wall. The two sides of a rep run back to back,
  /// so their ratio cancels host noise slower than a rep.
  double enumSpeedup() const {
    return enum_ratios.empty() ? 0 : median(enum_ratios);
  }
};

/// The reference enumeration: every transform's applicable locations through
/// the findApplicable overload that takes the program, which builds an index
/// for that one transform. The same actions, in the same order, as
/// transform::allActions, written into `out` so that its capacity carries
/// over from state to state as an ActionSet's does: the two sides then
/// differ only in how many indexes they build.
void perTransformIndexActions(const ir::Program& p,
                              const transform::MachineCaps& caps,
                              std::vector<transform::Action>& out) {
  out.clear();
  for (const transform::Transform* t : transform::allTransforms())
    for (auto& loc : t->findApplicable(p, caps))
      out.push_back({t, std::move(loc)});
}

/// One pass along a deterministic accepted-move trajectory: `shared`
/// updates an ActionSet after each step, `!shared` re-runs
/// perTransformIndexActions. Identical action streams, so walls compare like
/// with like. Only the enumerations are timed, not the applies between
/// them. Returns that wall in ms; `actions_seen` receives the number of
/// actions enumerated.
double enumerationWall(const ir::Program& p0, bool shared,
                       std::int64_t& actions_seen) {
  constexpr int kSteps = 64;
  using Clock = std::chrono::steady_clock;
  const auto& caps = machines::xeon().caps();
  Clock::duration wall{};
  auto timed = [&](auto&& enumerate) {
    const auto t0 = Clock::now();
    enumerate();
    wall += Clock::now() - t0;
  };
  actions_seen = 0;
  ir::Program p = p0;
  Rng rng(13);
  transform::ActionSet aset;
  std::vector<transform::Action> own;
  if (shared) timed([&] { aset.bind(p, caps); });
  else timed([&] { perTransformIndexActions(p, caps, own); });
  const std::vector<transform::Action>& actions = shared ? aset.actions() : own;
  for (int step = 0; step < kSteps && !actions.empty(); ++step) {
    actions_seen += static_cast<std::int64_t>(actions.size());
    const auto a = actions[rng.uniform(actions.size())];
    ir::MutationSummary mut;
    a.transform->applyInPlace(p, a.loc, &mut);
    if (shared) timed([&] { aset.update(p, mut); });
    else timed([&] { perTransformIndexActions(p, caps, own); });
  }
  return std::chrono::duration<double, std::milli>(wall).count();
}

Measurement measure() {
  Measurement mm;
  // Deep-tree kernels: schedules add splits/annotations, so these are the
  // realistic tree sizes whose candidate pricing dominates a tuning run.
  mm.kernels = {"softmax", "layernorm_1"};
  const auto& m = machines::xeon();
  for (const auto& label : mm.kernels) {
    const auto* k = kernels::findKernel(label);
    if (!k) {
      std::fprintf(stderr, "unknown kernel %s\n", label.c_str());
      std::exit(2);
    }
    const ir::Program p = k->build();
    const auto cfg = modernConfig();
    // Warm-up both pipelines, and take the candidate count from the warm-up
    // (bit-identical across reps and pipelines by the determinism contract).
    const auto warm_modern = search::runSearch(p, m, cfg);
    const auto warm_legacy = legacyAnnealing(p, m, cfg);
    if (warm_modern.stats.evals_requested != warm_legacy.evals ||
        warm_modern.best_runtime != warm_legacy.best_runtime) {
      std::fprintf(stderr, "pipeline divergence on %s: %lld vs %lld evals\n",
                   label.c_str(),
                   static_cast<long long>(warm_modern.stats.evals_requested),
                   static_cast<long long>(warm_legacy.evals));
      std::exit(2);
    }
    mm.candidates += warm_modern.stats.evals_requested;

    std::vector<double> modern_s, legacy_s;
    for (int rep = 0; rep < kReps; ++rep) {
      modern_s.push_back(search::runSearch(p, m, cfg).stats.wall_ms);
      legacy_s.push_back(legacyAnnealing(p, m, cfg).wall_ms);
    }
    mm.modern_ms += median(modern_s);
    mm.legacy_ms += median(legacy_s);

    // The two enumeration sides alternate rep by rep, so host noise lands
    // on both; rep 0 is the warm-up.
    std::vector<double> shared_s, per_transform_s;
    for (int rep = 0; rep <= kEnumReps; ++rep) {
      std::int64_t shared_actions = 0, per_transform_actions = 0;
      const double shared_ms = enumerationWall(p, true, shared_actions);
      const double per_transform_ms =
          enumerationWall(p, false, per_transform_actions);
      if (shared_actions != per_transform_actions) {
        std::fprintf(stderr, "enumeration divergence on %s: %lld vs %lld "
                     "actions\n",
                     label.c_str(), static_cast<long long>(shared_actions),
                     static_cast<long long>(per_transform_actions));
        std::exit(2);
      }
      if (rep == 0) {
        mm.enum_actions += shared_actions;
        continue;
      }
      shared_s.push_back(shared_ms);
      per_transform_s.push_back(per_transform_ms);
      mm.enum_ratios.push_back(per_transform_ms / shared_ms);
    }
    mm.enum_shared_ms += median(shared_s);
    mm.enum_per_transform_ms += median(per_transform_s);
  }
  return mm;
}

std::string toJson(const Measurement& m) {
  std::ostringstream os;
  os << "{\"kernels\":[";
  for (std::size_t i = 0; i < m.kernels.size(); ++i)
    os << (i ? "," : "") << '"' << m.kernels[i] << '"';
  os << "],\"candidates\":" << m.candidates
     << ",\"modern_wall_ms\":" << m.modern_ms
     << ",\"legacy_wall_ms\":" << m.legacy_ms
     << ",\"modern_candidates_per_sec\":" << m.modern_cps()
     << ",\"legacy_candidates_per_sec\":" << m.legacy_cps()
     << ",\"overhead_ratio\":" << m.overhead()
     << ",\"enum_actions\":" << m.enum_actions
     << ",\"enum_shared_ms\":" << m.enum_shared_ms
     << ",\"enum_per_transform_ms\":" << m.enum_per_transform_ms
     << ",\"shared_index_speedup\":" << m.enumSpeedup() << "}\n";
  return os.str();
}

int check(const Measurement& m, const std::string& baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  std::string err;
  if (!parseJson(ss.str(), doc, &err)) {
    std::fprintf(stderr, "malformed baseline %s: %s\n", baseline_path.c_str(),
                 err.c_str());
    return 1;
  }
  const double base = doc.numberOr("overhead_ratio", 0);
  if (base <= 0) {
    std::fprintf(stderr, "baseline %s lacks overhead_ratio\n",
                 baseline_path.c_str());
    return 1;
  }
  // The modern stack may not drift more than 25% above the checked-in
  // overhead ratio, with an absolute allowance of 1.30x so a near-parity
  // baseline does not turn run-to-run noise into failures.
  const double limit = base * 1.25 > 1.30 ? base * 1.25 : 1.30;
  std::printf("check: measured overhead %.2fx vs baseline %.2fx "
              "(limit %.2fx)\n",
              m.overhead(), base, limit);
  if (m.overhead() > limit) {
    std::fprintf(stderr,
                 "FAIL: candidate pricing overhead regressed: %.2fx > %.2fx\n",
                 m.overhead(), limit);
    return 1;
  }
  // The enumeration speedup is also a same-host ratio. An update that
  // stopped sharing one index across the transforms reads parity (1.0x), so
  // the floor sits halfway between parity and the checked-in win: the
  // shared index must keep at least half of its win.
  const double sp_base = doc.numberOr("shared_index_speedup", 0);
  if (sp_base <= 1.0) {
    std::fprintf(stderr, "baseline %s lacks a shared_index_speedup above 1\n",
                 baseline_path.c_str());
    return 1;
  }
  const double floor = 1.0 + 0.5 * (sp_base - 1.0);
  std::printf("check: enumeration speedup %.2fx vs baseline %.2fx "
              "(floor %.2fx)\n",
              m.enumSpeedup(), sp_base, floor);
  if (m.enumSpeedup() < floor) {
    std::fprintf(stderr,
                 "FAIL: shared-index enumeration speedup regressed: "
                 "%.2fx < %.2fx\n",
                 m.enumSpeedup(), floor);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfdojo

int main(int argc, char** argv) {
  const auto args =
      perfdojo::bench::parseGateArgs(argc, argv, "BENCH_candidates.json");
  const auto m = perfdojo::measure();
  std::printf("candidates=%lld (per pipeline, %zu kernels)\n",
              static_cast<long long>(m.candidates), m.kernels.size());
  std::printf("modern  %10.1f ms  %12.0f candidates/sec\n", m.modern_ms,
              m.modern_cps());
  std::printf("legacy  %10.1f ms  %12.0f candidates/sec\n", m.legacy_ms,
              m.legacy_cps());
  std::printf("overhead %.2fx (modern wall / legacy wall)\n", m.overhead());
  std::printf("enum    %10.1f ms shared vs %10.1f ms per-transform index  "
              "%12.0f actions/sec  %.2fx\n",
              m.enum_shared_ms, m.enum_per_transform_ms,
              m.enum_shared_ms > 0
                  ? 1e3 * static_cast<double>(m.enum_actions) /
                        m.enum_shared_ms
                  : 0,
              m.enumSpeedup());
  const std::string json = perfdojo::toJson(m);
  std::ofstream(args.out) << json;
  std::printf("wrote %s: %s", args.out.c_str(), json.c_str());
  return args.baseline.empty() ? 0 : perfdojo::check(m, args.baseline);
}
