#include "search/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "ir/canonical.h"
#include "ir/incremental.h"
#include "ir/walk.h"
#include "search/delta.h"
#include "transform/action_set.h"
#include "search/evalcache.h"
#include "search/pass.h"
#include "search/prefix_replay.h"
#include "search/prior.h"
#include "search/prior_train.h"
#include "support/common.h"
#include "support/telemetry.h"

namespace perfdojo::search {

using transform::Action;
using transform::Location;
using transform::MachineCaps;
using transform::Step;

const char* searchMethodName(SearchMethod m) {
  return m == SearchMethod::RandomSampling ? "random" : "annealing";
}

const char* spaceStructureName(SpaceStructure s) {
  return s == SpaceStructure::Edges ? "edges" : "heuristic";
}

const char* terminationReasonName(TerminationReason r) {
  switch (r) {
    case TerminationReason::BudgetExhausted:
      return "budget_exhausted";
    case TerminationReason::SpaceExhausted:
      return "space_exhausted";
    case TerminationReason::Stall:
      return "stall";
  }
  return "unknown";
}

bool saAccept(double delta, double temp, Rng& rng) {
  if (delta <= 0) return true;
  // A NaN delta fails `delta <= 0` and would silently feed exp(-NaN) below;
  // +inf would draw a uniform only to compare it against exp(-inf) == 0.
  // Reject both before touching the RNG.
  if (!std::isfinite(delta)) return false;
  return rng.uniformReal() < std::exp(-delta / std::max(temp, 1e-6));
}

double saTemperature(double t0, double decay, std::int64_t evals) {
  return t0 * std::pow(decay, static_cast<double>(evals));
}

namespace {

/// suggestExpertAction's weight for each action, parallel to `actions`.
std::vector<double> expertWeights(const std::vector<Action>& actions,
                                  const MachineCaps& caps) {
  std::vector<double> weights;
  weights.reserve(actions.size());
  for (const auto& a : actions) {
    const std::string& n = a.transform->name();
    double w = 1.0;
    if (caps.has_ssr || caps.has_frep) {
      if (n == "frep") w = 12;
      else if (n == "ssr_stream") w = 10;
      else if (n == "partial_reduce" && a.loc.param == 4) w = 10;
      else if (n == "unroll") w = 6;
      else if (n == "join_scopes" || n == "reuse_dims") w = 4;
    } else if (caps.is_gpu) {
      if (n == "gpu_map_grid") w = 12;
      else if (n == "gpu_map_block") w = 12;
      else if (n == "vectorize") w = 10;
      else if (n == "split_scope" &&
               (a.loc.param == 4 || a.loc.param % caps.warp_size == 0))
        w = 6;
      else if (n == "join_scopes" || n == "reuse_dims") w = 8;
    } else {
      if (n == "vectorize") w = 12;
      else if (n == "parallelize") w = 12;
      else if (n == "join_scopes" || n == "reuse_dims") w = 10;
      else if (n == "partial_reduce") w = 7;
      else if (n == "split_scope" &&
               std::find(caps.vector_widths.begin(), caps.vector_widths.end(),
                         a.loc.param) != caps.vector_widths.end())
        w = 7;
      else if (n == "set_storage") w = 4;
      else if (n == "unroll") w = 3;
    }
    weights.push_back(w);
  }
  return weights;
}

}  // namespace

bool suggestExpertAction(const ir::Program& p, const MachineCaps& caps,
                         Rng& rng, Action& out) {
  const auto actions = transform::allActions(p, caps);
  if (actions.empty()) return false;
  out = actions[rng.weightedIndex(expertWeights(actions, caps))];
  return true;
}

namespace {

/// Cost oracle of one search run: routes evaluations through the memo table
/// and keeps the SearchStats accounting. Called on the decision thread only.
class Eval {
 public:
  Eval(const machines::Machine& m, EvalCache* cache) : m_(m), cache_(cache) {}

  double cost(const ir::Program& p) {
    return costInPlace(cache_ ? ir::canonicalHash(p) : 0, p);
  }

  /// cost() for a candidate whose canonical hash `h` the caller already
  /// knows — the edges walk prices the delta scratch tree while it is live.
  /// Without a memo table the hash is ignored and `p` is just evaluated:
  /// one requested eval, one machine eval, no unique-set entry.
  double costInPlace(std::uint64_t h, const ir::Program& p) {
    ++requested_;
    if (!cache_) {
      ++machine_evals_;
      return m_.evaluate(p);
    }
    seen_.insert(h);
    double v;
    if (cache_->lookup(m_, h, v)) {
      ++hits_;
      return v;
    }
    v = m_.evaluate(p);
    ++machine_evals_;
    cache_->insert(m_, h, v);
    return v;
  }

  /// An evaluation served from a per-state memo without re-hashing: still a
  /// requested evaluation and still a cache hit.
  void countMemoHit() {
    ++requested_;
    ++hits_;
  }

  bool memoizing() const { return cache_ != nullptr; }

  void fillStats(SearchStats& s) const {
    s.evals_requested = requested_;
    s.cache_hits = hits_;
    s.machine_evals = machine_evals_;
    s.unique_programs = static_cast<std::int64_t>(seen_.size());
  }

 private:
  const machines::Machine& m_;
  EvalCache* cache_;
  std::int64_t requested_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t machine_evals_ = 0;
  std::unordered_set<std::uint64_t> seen_;
};

struct Tracker {
  ir::Program best;
  double best_runtime = 1e300;
  std::vector<double> trace;
  int evals = 0;
  int budget;
  std::int64_t nonfinite = 0;  // recorded evaluations with NaN/inf cost
  /// Drivers downgrade this to Stall when they give up before the budget.
  TerminationReason reason = TerminationReason::BudgetExhausted;
  Telemetry* sink = nullptr;   // optional; record() runs on the decision
                               // thread only, so the event order is fixed
  bool trace_programs = false;  // add canonical text to search_eval events

  // Prior-gate accounting (edges drivers fill these when a prior is active):
  // skipped neighbors, and (predicted, exact) pairs plus the improving count
  // for every kept candidate that reached exact pricing.
  std::int64_t prior_filtered = 0;
  std::int64_t prior_improving = 0;
  std::vector<double> prior_pred, prior_exact;

  explicit Tracker(int b) : budget(b) {}

  bool exhausted() const { return evals >= budget; }

  /// A non-finite runtime is counted and traced but can never become the
  /// best program: `NaN < best` is false by IEEE semantics, but +/-inf (or a
  /// negative-cost model bug) must be fenced explicitly.
  bool admissible(double runtime) const {
    return std::isfinite(runtime) && runtime >= 0;
  }

  /// `text` renders the candidate's canonical form; it is only invoked in
  /// dataset-recording mode, so the default trace pays nothing for it.
  void emitEval(double runtime, const std::function<std::string()>& text) {
    if (!sink) return;
    Event e("search_eval");
    e.integer("eval", evals).num("runtime", runtime).num("best", best_runtime);
    if (trace_programs) e.str("program", text());
    sink->emit(e);
  }

  void record(const ir::Program& p, double runtime) {
    ++evals;
    if (!admissible(runtime)) {
      ++nonfinite;
    } else if (runtime < best_runtime) {
      best_runtime = runtime;
      best = p;
    }
    trace.push_back(best_runtime);
    emitEval(runtime, [&] { return ir::canonicalText(p); });
  }

  /// Record an evaluation whose program is materialized lazily, only if it
  /// becomes the best — used by the edges annealer, which prices candidates
  /// without copying them.
  void record(double runtime, const std::function<ir::Program()>& make) {
    ++evals;
    if (!admissible(runtime)) {
      ++nonfinite;
    } else if (runtime < best_runtime) {
      best_runtime = runtime;
      best = make();
    }
    trace.push_back(best_runtime);
    emitEval(runtime, [&] { return ir::canonicalText(make()); });
  }
};

// --- Edges structure: nodes are programs, neighbors are single actions. ---

/// Per-state neighbor filter around the learned prior: rebind() scores a
/// state's whole neighbor set from canonical text and keeps the top-k
/// best-predicted indices drawable; everything else is skipped before any
/// exact pricing and counted in Tracker::prior_filtered.
///
/// Determinism contract: the filter runs on the decision thread, scoring is
/// a pure function of (model, canonical text), and the kept list is returned
/// in ascending index order — so the subsequent uniform draw over it depends
/// only on the seed. When the gate is inactive (no model, or topk spells
/// "all") the kept list is the identity over the same index range, the draw
/// consumes the identical uniform(n) call, and the run is bit-identical to
/// one without a prior.
class PriorGate {
 public:
  PriorGate(const SearchConfig& cfg, Tracker& tr)
      : prior_(cfg.prior),
        topk_(static_cast<std::size_t>(cfg.prior_topk > 0 ? cfg.prior_topk : 0)),
        tr_(tr) {
    active_ = prior_ != nullptr && prior_->valid() && topk_ > 0;
  }

  bool active() const { return active_; }

  /// Rescores for a new current state. `dctx` (when non-null and bound to
  /// `cur`) renders neighbors in place on the delta scratch; otherwise each
  /// neighbor is applied into a copy just for scoring.
  void rebind(const std::vector<Action>& actions, const ir::Program& cur,
              DeltaContext* dctx) {
    scores_.clear();
    allowed_.resize(actions.size());
    for (std::size_t i = 0; i < allowed_.size(); ++i) allowed_[i] = i;
    if (!active_ || actions.size() <= topk_) return;
    scores_.resize(actions.size());
    for (std::size_t i = 0; i < actions.size(); ++i) {
      std::string text;
      if (dctx) {
        dctx->neighborVisit(actions[i],
                            [&](std::uint64_t, const ir::Program& q) {
                              text = ir::canonicalText(q);
                            });
      } else {
        text = ir::canonicalText(actions[i].apply(cur));
      }
      scores_[i] = prior_->predict(prior_->features(text));
    }
    allowed_ = PriorModel::topK(scores_, topk_);
    tr_.prior_filtered +=
        static_cast<std::int64_t>(actions.size() - allowed_.size());
  }

  /// Drawable indices into the state's action list (ascending).
  const std::vector<std::size_t>& allowed() const { return allowed_; }

  /// Whether the current state was actually scored (active and over-budget
  /// neighbor set); only scored states contribute co-evolution pairs.
  bool scored() const { return !scores_.empty(); }
  double scoreOf(std::size_t ai) const { return scores_[ai]; }

  /// Logs one kept candidate's exact price against its prediction; `ref_rt`
  /// is the cost the candidate had to beat (current state / parent).
  void note(std::size_t ai, double exact_rt, double ref_rt) {
    if (!scored()) return;
    tr_.prior_pred.push_back(scores_[ai]);
    tr_.prior_exact.push_back(exact_rt);
    if (exact_rt < ref_rt) ++tr_.prior_improving;
  }

 private:
  const PriorModel* prior_;
  std::size_t topk_;
  Tracker& tr_;
  bool active_ = false;
  std::vector<double> scores_;
  std::vector<std::size_t> allowed_;
};

/// Runtimes stored in sampling pools feed 1/runtime draw weights; one NaN or
/// inf entry would poison every subsequent Rng::weightedIndex call. Store
/// degenerate costs as a huge-but-finite sentinel instead (weight ~0: such a
/// parent is effectively never drawn, matching the intent of rejecting it).
double poolRuntime(double rt) {
  return (std::isfinite(rt) && rt > 0) ? rt : 1e300;
}

struct PoolEntry {
  ir::Program program;
  double runtime;
  double parent_runtime;  // cost used for sampling (paper Section 4.2.2)
};

void randomSamplingEdges(const ir::Program& kernel,
                         const machines::Machine& m, const SearchConfig& cfg,
                         Eval& ev, Tracker& tr) {
  Rng rng(cfg.seed);
  std::vector<PoolEntry> pool;
  const double t0 = ev.cost(kernel);
  tr.record(kernel, t0);
  pool.push_back({kernel, poolRuntime(t0), poolRuntime(t0)});
  // The weighted draw concentrates on fast parents, so the same pool entry
  // is drawn many times in a row; its enumeration is bound once and reused
  // until the draw moves on (pool entries are immutable, so the cached list
  // stays exact).
  transform::ActionSet aset;
  std::size_t cached_pi = static_cast<std::size_t>(-1);
  // The prior gate follows the same reuse pattern as the ActionSet: a drawn
  // parent's neighbor scores stay valid until the draw moves to another pool
  // entry (entries are immutable), so rescoring happens once per parent
  // streak, not once per draw. The allowed indices target the ActionSet's
  // action list.
  PriorGate gate(cfg, tr);
  std::size_t gate_pi = static_cast<std::size_t>(-1);
  int barren = 0;  // consecutive proposals that yielded no candidate
  while (!tr.exhausted() && barren < 1024) {
    // Sample proportionally to 1/parent_runtime: children of fast parents.
    std::vector<double> w;
    w.reserve(pool.size());
    for (const auto& e : pool) w.push_back(1.0 / e.parent_runtime);
    const std::size_t pi = rng.weightedIndex(w);
    const auto& parent = pool[pi];
    if (pi != cached_pi) {
      aset.bind(parent.program, m.caps());
      cached_pi = pi;
    }
    const std::vector<Action>& actions = aset.actions();
    if (actions.empty()) {
      ++barren;  // a dead-end parent may be drawn forever; bound the retries
      continue;
    }
    barren = 0;
    if (pi != gate_pi) {
      gate.rebind(actions, parent.program, nullptr);
      gate_pi = pi;
    }
    const std::vector<std::size_t>& allowed = gate.allowed();
    const std::size_t ai = allowed[rng.uniform(allowed.size())];
    const double parent_rt = parent.runtime;  // push_back invalidates `parent`
    ir::Program child = actions[ai].apply(parent.program);
    const double rt = ev.cost(child);
    tr.record(child, rt);
    gate.note(ai, rt, parent_rt);
    pool.push_back({std::move(child), poolRuntime(rt), parent_rt});
    if (pool.size() > 4096) {
      pool.erase(pool.begin(), pool.begin() + 1024);
      cached_pi = static_cast<std::size_t>(-1);  // indices shifted
      gate_pi = static_cast<std::size_t>(-1);
    }
  }
  if (!tr.exhausted()) tr.reason = TerminationReason::Stall;
}

void annealingEdges(const ir::Program& kernel, const machines::Machine& m,
                    const SearchConfig& cfg, Eval& ev, Tracker& tr) {
  Rng rng(cfg.seed);
  const double base_rt = ev.cost(kernel);
  tr.record(kernel, base_rt);
  double cur_rt = base_rt;
  double temp = cfg.sa_t0;
  int steps = 0;
  // The current state is the DeltaContext's base: neighbors are hashed
  // incrementally against it and model-priced live on its scratch tree, and
  // an accepted move is committed in place, so the walk copies a program
  // only for a new best. The hash is canonicalHash(a.apply(cur)) bit for bit.
  DeltaContext dctx;
  // The action list of the current state comes from the ActionSet, which
  // enumerates each accepted state through one shared index; it is
  // element-identical to a fresh allActions, so ai-indexed draws land on the
  // definition's action.
  // Each action's candidate cost is memoized per state: a re-drawn action
  // costs a table lookup instead of an apply + evaluate, with identical
  // values, so the decision sequence matches a memo-free run exactly.
  transform::ActionSet aset;
  constexpr double kUnpriced = -1.0;  // action_cost entry not yet priced
  std::vector<double> action_cost;
  // Prior gate: rescored at every state (re)bind, after the delta context is
  // aimed at the new state so scoring can render neighbors in place.
  PriorGate gate(cfg, tr);
  auto restart = [&] {
    dctx.bind(kernel);
    aset.bind(dctx.base(), m.caps());
    action_cost.assign(aset.actions().size(), kUnpriced);
    gate.rebind(aset.actions(), dctx.base(), &dctx);
    cur_rt = base_rt;
    steps = 0;
  };
  restart();
  while (!tr.exhausted()) {
    const std::vector<Action>& actions = aset.actions();
    if (actions.empty() || steps >= cfg.max_steps) {
      restart();  // from the source program
      if (aset.actions().empty()) {
        tr.reason = TerminationReason::Stall;
        break;  // nothing applicable at the root: done
      }
      continue;
    }
    const std::vector<std::size_t>& allowed = gate.allowed();
    const std::size_t ai = allowed[rng.uniform(allowed.size())];
    const Action& a = actions[ai];
    double rt;
    const bool memo_hit = ev.memoizing() && action_cost[ai] != kUnpriced;
    if (memo_hit) {
      // Re-drawn action on an unchanged state: the cost is known, so skip
      // the apply + hash + evaluate entirely.
      rt = action_cost[ai];
      ev.countMemoHit();
    } else {
      // Price the neighbor while it is still live in the delta scratch.
      dctx.neighborVisit(a, [&](std::uint64_t h, const ir::Program& q) {
        rt = ev.costInPlace(h, q);
      });
      action_cost[ai] = rt;
      gate.note(ai, rt, cur_rt);
    }
    // Materialized only if the candidate improves the best — never on a
    // memo hit, whose first evaluation already set best_runtime <= rt.
    tr.record(rt, [&] { return a.apply(dctx.base()); });
    const double delta = (rt - cur_rt) / base_rt;
    const bool accepted = saAccept(delta, temp, rng);
    if (cfg.telemetry)
      cfg.telemetry->emit(Event("sa_step")
                              .integer("eval", tr.evals)
                              .str("action", a.transform->name())
                              .str("loc", transform::locationToText(a.loc))
                              .num("runtime", rt)
                              .num("delta", delta)
                              .num("temp", temp)
                              .boolean("accepted", accepted)
                              .boolean("memo_hit", memo_hit));
    if (accepted) {
      // accept() applies the move and rebases the canonical form in place;
      // the action list is then enumerated afresh (which invalidates `a`).
      ir::MutationSummary mut;
      const ir::Program& cur = dctx.accept(a, &mut);
      aset.update(cur, mut);
      action_cost.assign(aset.actions().size(), kUnpriced);
      gate.rebind(aset.actions(), cur, &dctx);
      cur_rt = rt;
      ++steps;
    }
    temp *= cfg.sa_decay;  // decays once per recorded evaluation
  }
}

// --- Heuristic structure: states are whole transformation sequences,
//     refined at arbitrary points (Section 4.2.1). ---

struct SeqState {
  std::vector<Step> steps;
  double runtime;
  double parent_runtime;
};

void randomSamplingHeuristic(const ir::Program& kernel,
                             const machines::Machine& m,
                             const SearchConfig& cfg, Eval& ev, Tracker& tr) {
  Rng rng(cfg.seed);
  std::vector<SeqState> pool;
  const double t0 = ev.cost(kernel);
  tr.record(kernel, t0);
  pool.push_back({{}, poolRuntime(t0), poolRuntime(t0)});
  // Section 4.2.1's initial candidate is the expert pass's sequence. The
  // replayer is bound to the last parent drawn, initially the seed, whose
  // states the pass recorded; pool entries are immutable, and a rebind keeps
  // the states of the prefix the new parent shares with the last one.
  transform::History seed = heuristicPass(kernel, m);
  const double seed_rt = ev.cost(seed.current());
  tr.record(seed.current(), seed_rt);
  pool.push_back({seed.steps(), poolRuntime(seed_rt), poolRuntime(t0)});
  PrefixReplayer seq(kernel);
  seq.bind(std::move(seed));
  std::size_t bound_pi = 1;
  int barren = 0;
  while (!tr.exhausted() && barren < 1024) {
    std::vector<double> w;
    w.reserve(pool.size());
    for (const auto& e : pool) w.push_back(1.0 / e.parent_runtime);
    const std::size_t pi = rng.weightedIndex(w);
    if (pi != bound_pi) {
      seq.bind(pool[pi].steps);
      bound_pi = pi;
    }
    if (!seq.propose(m.caps(), rng, cfg.max_steps)) {
      ++barren;
      continue;
    }
    barren = 0;
    const ir::Program& child = seq.candidateProgram();
    const double rt = ev.cost(child);
    tr.record(child, rt);
    pool.push_back({seq.candidate(), poolRuntime(rt), pool[pi].runtime});
    if (pool.size() > 4096) {
      pool.erase(pool.begin(), pool.begin() + 1024);
      bound_pi = static_cast<std::size_t>(-1);  // indices shifted
    }
  }
  if (!tr.exhausted()) tr.reason = TerminationReason::Stall;
}

void annealingHeuristic(const ir::Program& kernel, const machines::Machine& m,
                        const SearchConfig& cfg, Eval& ev, Tracker& tr) {
  Rng rng(cfg.seed);
  double cur_rt = ev.cost(kernel);
  const double base_rt = cur_rt;
  tr.record(kernel, cur_rt);
  // The incumbent starts as the empty sequence and becomes the expert pass's
  // sequence (Section 4.2.1's initial candidate) if that beats the kernel;
  // the pass recorded its states, so nothing is replayed.
  PrefixReplayer seq(kernel);
  {
    transform::History seed = heuristicPass(kernel, m);
    const double rt = ev.cost(seed.current());
    tr.record(seed.current(), rt);
    if (rt < cur_rt) {
      seq.bind(std::move(seed));
      cur_rt = rt;
    }
  }
  double temp = cfg.sa_t0;
  int barren = 0;  // consecutive failed proposals (mutation or replay)
  while (!tr.exhausted() && barren < 1024) {
    if (!seq.propose(m.caps(), rng, cfg.max_steps)) {
      ++barren;
      continue;
    }
    barren = 0;
    const ir::Program& prog = seq.candidateProgram();
    const double rt = ev.cost(prog);
    tr.record(prog, rt);
    const double delta = (rt - cur_rt) / base_rt;
    const bool accepted = saAccept(delta, temp, rng);
    if (cfg.telemetry) {
      const std::vector<Step>& cand = seq.candidate();
      Event e("sa_step");
      e.integer("eval", tr.evals)
          .integer("seq_len", static_cast<std::int64_t>(cand.size()));
      if (!cand.empty())
        e.str("action", cand.back().transform->name())
            .str("loc", transform::locationToText(cand.back().loc));
      e.num("runtime", rt)
          .num("delta", delta)
          .num("temp", temp)
          .boolean("accepted", accepted);
      cfg.telemetry->emit(e);
    }
    if (accepted) {
      seq.accept();
      cur_rt = rt;
    }
    temp *= cfg.sa_decay;  // decays once per recorded evaluation
  }
  if (!tr.exhausted()) tr.reason = TerminationReason::Stall;
}

}  // namespace

SearchResult runSearch(const ir::Program& kernel, const machines::Machine& m,
                       const SearchConfig& cfg, EvalCache* shared_cache) {
  const auto start = std::chrono::steady_clock::now();
  EvalCache local_cache;
  EvalCache* cache =
      shared_cache ? shared_cache : (cfg.use_cache ? &local_cache : nullptr);
  Eval ev(m, cache);

  Tracker tr(cfg.budget);
  tr.best = kernel;
  tr.sink = cfg.telemetry;
  tr.trace_programs = cfg.trace_programs;
  if (cfg.telemetry) {
    Event b("search_begin");
    b.str("machine", m.name())
        .str("method", searchMethodName(cfg.method))
        .str("structure", spaceStructureName(cfg.structure))
        .integer("budget", cfg.budget)
        .integer("seed", static_cast<std::int64_t>(cfg.seed));
    // The schema stamp rides with the program text it describes: traces
    // recorded without --trace-programs stay byte-identical to older runs,
    // and the trainer knows exactly which feature definition it is reading.
    if (cfg.trace_programs) b.integer("prior_schema", kPriorSchemaVersion);
    cfg.telemetry->emit(b);
  }
  if (cfg.structure == SpaceStructure::Edges) {
    if (cfg.method == SearchMethod::RandomSampling)
      randomSamplingEdges(kernel, m, cfg, ev, tr);
    else
      annealingEdges(kernel, m, cfg, ev, tr);
  } else {
    if (cfg.method == SearchMethod::RandomSampling)
      randomSamplingHeuristic(kernel, m, cfg, ev, tr);
    else
      annealingHeuristic(kernel, m, cfg, ev, tr);
  }
  SearchResult r;
  r.best = std::move(tr.best);
  r.best_runtime = tr.best_runtime;
  r.evals = tr.evals;
  r.reason = tr.reason;
  r.trace = std::move(tr.trace);
  ev.fillStats(r.stats);
  r.stats.nonfinite_rejected = tr.nonfinite;
  // Co-evolution diagnostics: how the prior's predictions fared against the
  // exact prices it let through. Only the edges drivers consult the gate.
  const bool prior_active = cfg.prior != nullptr && cfg.prior->valid() &&
                            cfg.prior_topk > 0 &&
                            cfg.structure == SpaceStructure::Edges;
  r.stats.prior_filtered = tr.prior_filtered;
  r.stats.prior_kept = static_cast<std::int64_t>(tr.prior_pred.size());
  if (!tr.prior_pred.empty()) {
    r.stats.prior_hit_rate = static_cast<double>(tr.prior_improving) /
                             static_cast<double>(tr.prior_pred.size());
    r.stats.prior_spearman = spearman(tr.prior_pred, tr.prior_exact);
  }
  r.stats.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  if (cfg.telemetry) {
    // Cache hit/miss totals live here rather than in per-eval events, so a
    // trace reads the same whichever memo table (shared or per run) served it.
    Event e("search_end");
    e.num("best_runtime", r.best_runtime)
        .str("reason", terminationReasonName(r.reason))
        .integer("evals", r.evals)
        .integer("cache_hits", r.stats.cache_hits)
        .integer("machine_evals", r.stats.machine_evals)
        .integer("unique_programs", r.stats.unique_programs)
        .integer("nonfinite_rejected", r.stats.nonfinite_rejected);
    // Prior fields only when a filtering prior ran: a run with --no-prior or
    // --prior-topk=all stays byte-identical to one that never had a prior.
    if (prior_active) {
      e.integer("prior_filtered", r.stats.prior_filtered)
          .integer("prior_kept", r.stats.prior_kept)
          .num("prior_hit_rate", r.stats.prior_hit_rate)
          .num("prior_spearman", r.stats.prior_spearman);
    }
    e.num("wall_ms", r.stats.wall_ms);
    cfg.telemetry->emit(e);
  }
  return r;
}

SearchResult runSearch(const ir::Program& kernel, const machines::Machine& m,
                       const SearchConfig& cfg) {
  return runSearch(kernel, m, cfg, nullptr);
}

}  // namespace perfdojo::search
