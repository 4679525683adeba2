#include "search/search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <unordered_set>

#include "ir/canonical.h"
#include "ir/incremental.h"
#include "ir/walk.h"
#include "search/delta.h"
#include "transform/action_set.h"
#include "search/evalcache.h"
#include "search/parallel_eval.h"
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

/// Cost oracle of one search run: routes evaluations through the shared memo
/// table and keeps the SearchStats accounting. cost() is re-entrant (atomic
/// counters, mutex-guarded unique-hash set), so batches may call it from
/// ParallelEvaluator workers.
class Eval {
 public:
  Eval(const machines::Machine& m, EvalCache* cache, ParallelEvaluator* pool)
      : m_(m), cache_(cache), pool_(pool) {}

  /// In-flight cap for deferred evaluation batches. Thread-count dependent,
  /// which is safe: batch boundaries never influence search decisions.
  std::size_t batchLimit() const {
    return pool_ ? static_cast<std::size_t>(pool_->threads()) * 2 : 1;
  }

  double cost(const ir::Program& p) {
    return costInPlace(cache_ ? ir::canonicalHash(p) : 0, p);
  }

  /// Prices programs[i] into out[i], concurrently when a pool is available.
  /// Counts exactly as cost() called in order would: memo lookups and the
  /// hit/miss split are decided serially, and only the model runs of
  /// distinct misses go to the pool. (Pricing two copies of one program
  /// concurrently would let both miss, making the counters depend on the
  /// schedule.)
  void costs(const std::vector<ir::Program>& programs,
             std::vector<double>& out) {
    const std::size_t n = programs.size();
    out.assign(n, 0.0);
    if (!pool_ || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) out[i] = cost(programs[i]);
      return;
    }
    std::vector<std::uint64_t> hashes(n, 0);
    if (cache_)
      pool_->forEach(n, [&](std::size_t i) {
        hashes[i] = ir::canonicalHash(programs[i]);
      });
    // first[i]: index of the batch entry that runs the model for entry i.
    std::vector<std::size_t> first(n);
    std::vector<std::size_t> runs;
    for (std::size_t i = 0; i < n; ++i) {
      ++requested_;
      first[i] = i;
      if (!cache_) {
        runs.push_back(i);
        continue;
      }
      noteUnique(hashes[i]);
      if (cache_->lookup(m_, hashes[i], out[i])) {
        ++hits_;
        continue;
      }
      for (const std::size_t j : runs)
        if (hashes[j] == hashes[i]) first[i] = j;
      if (first[i] == i)
        runs.push_back(i);
      else
        ++hits_;
    }
    pool_->forEach(runs.size(), [&](std::size_t r) {
      out[runs[r]] = m_.evaluate(programs[runs[r]]);
    });
    machine_evals_ += static_cast<std::int64_t>(runs.size());
    for (const std::size_t i : runs)
      if (cache_) cache_->insert(m_, hashes[i], out[i]);
    for (std::size_t i = 0; i < n; ++i) out[i] = out[first[i]];
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
    noteUnique(h);
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
    s.evals_requested = requested_.load();
    s.cache_hits = hits_.load();
    s.machine_evals = machine_evals_.load();
    s.unique_programs = static_cast<std::int64_t>(seen_.size());
    s.threads_used = pool_ ? pool_->threads() : 1;
  }

 private:
  void noteUnique(std::uint64_t h) {
    std::lock_guard<std::mutex> lk(seen_mu_);
    seen_.insert(h);
  }

  const machines::Machine& m_;
  EvalCache* cache_;
  ParallelEvaluator* pool_;
  std::atomic<std::int64_t> requested_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> machine_evals_{0};
  mutable std::mutex seen_mu_;
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

  bool exhausted(int in_flight = 0) const { return evals + in_flight >= budget; }

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

/// Deferred candidate evaluation: proposals queue up with their programs and
/// are priced in one concurrent batch; results are recorded in submission
/// order, so the trace and best-program tracking are identical to a fully
/// serial run.
class DeferredEvals {
 public:
  DeferredEvals(Eval& ev, Tracker& tr) : ev_(ev), tr_(tr) {}

  std::size_t inFlight() const { return programs_.size(); }

  /// Queues a candidate; on_cost receives its runtime at flush time (used to
  /// fill the sampling pool entry it belongs to).
  void submit(ir::Program p, std::function<void(double)> on_cost) {
    programs_.push_back(std::move(p));
    on_cost_.push_back(std::move(on_cost));
  }

  void flush() {
    if (programs_.empty()) return;
    std::vector<double> costs;
    ev_.costs(programs_, costs);
    for (std::size_t i = 0; i < programs_.size(); ++i) {
      tr_.record(programs_[i], costs[i]);
      on_cost_[i](costs[i]);
    }
    programs_.clear();
    on_cost_.clear();
  }

 private:
  Eval& ev_;
  Tracker& tr_;
  std::vector<ir::Program> programs_;
  std::vector<std::function<void(double)>> on_cost_;
};

// --- Edges structure: nodes are programs, neighbors are single actions. ---

constexpr double kPendingRuntime = -1.0;

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
  double runtime;         // kPendingRuntime while the evaluation is in flight
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
  DeferredEvals batch(ev, tr);
  // The weighted draw concentrates on fast parents, so the same pool entry
  // is drawn many times in a row; its enumeration is bound once and reused
  // until the draw moves on (pool entries are immutable, so the cached list
  // stays exact).
  transform::ActionSet aset;
  std::size_t cached_pi = static_cast<std::size_t>(-1);
  // The prior gate follows the same reuse pattern as the ActionSet: a drawn
  // parent's neighbor scores stay valid until the draw moves to another pool
  // entry (entries are immutable), so rescoring happens once per parent
  // streak, not once per draw. The allowed indices target the deterministic
  // action enumeration, which the index keeps element-identical to a fresh
  // allActions pass.
  PriorGate gate(cfg, tr);
  std::size_t gate_pi = static_cast<std::size_t>(-1);
  // Parent draws depend only on parent_runtime values (known at submission
  // time), never on a candidate's own cost, so evaluations can lag behind
  // proposals by a full batch without changing any decision.
  int barren = 0;  // consecutive proposals that yielded no candidate
  while (!tr.exhausted(static_cast<int>(batch.inFlight())) && barren < 1024) {
    // Sample proportionally to 1/parent_runtime: children of fast parents.
    std::vector<double> w;
    w.reserve(pool.size());
    for (const auto& e : pool) w.push_back(1.0 / e.parent_runtime);
    const std::size_t pi = rng.weightedIndex(w);
    if (pool[pi].runtime == kPendingRuntime) batch.flush();
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
    const auto& a = actions[ai];
    ir::Program child = a.apply(parent.program);
    const double parent_rt = parent.runtime;  // before push_back invalidates
    const std::size_t slot = pool.size();     // the `parent` reference
    pool.push_back({child, kPendingRuntime, parent_rt});
    // The exact price arrives at flush time; log the co-evolution pair then
    // (flush resolves callbacks in submission order on the decision thread,
    // so the pair sequence is as deterministic as the trace itself).
    const bool noted = gate.scored();
    const double pred = noted ? gate.scoreOf(ai) : 0.0;
    batch.submit(std::move(child),
                 [&pool, slot, &tr, noted, pred, parent_rt](double rt) {
                   pool[slot].runtime = poolRuntime(rt);
                   if (noted) {
                     tr.prior_pred.push_back(pred);
                     tr.prior_exact.push_back(rt);
                     if (rt < parent_rt) ++tr.prior_improving;
                   }
                 });
    if (batch.inFlight() >= ev.batchLimit()) batch.flush();
    if (pool.size() > 4096) {
      batch.flush();  // resolve slot indices before compacting
      pool.erase(pool.begin(), pool.begin() + 1024);
      cached_pi = static_cast<std::size_t>(-1);  // indices shifted
      gate_pi = static_cast<std::size_t>(-1);
    }
  }
  batch.flush();
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
  // The action list of the current state comes from the ActionSet, spliced
  // from each accepted move's mutation summary; it is element-identical to
  // a fresh allActions, so ai-indexed draws land on the definition's action.
  // Each action's candidate cost is memoized per state: a re-drawn action
  // costs a table lookup instead of an apply + evaluate, with identical
  // values, so the decision sequence matches a memo-free run exactly.
  transform::ActionSet aset;
  std::vector<double> action_cost;
  // Prior gate: rescored at every state (re)bind, after the delta context is
  // aimed at the new state so scoring can render neighbors in place.
  PriorGate gate(cfg, tr);
  auto restart = [&] {
    dctx.bind(kernel);
    aset.bind(dctx.base(), m.caps());
    action_cost.assign(aset.actions().size(), kPendingRuntime);
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
    const bool memo_hit = ev.memoizing() && action_cost[ai] != kPendingRuntime;
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
      // its mutation summary splices the action list (which invalidates `a`).
      ir::MutationSummary mut;
      const ir::Program& cur = dctx.accept(a, &mut);
      aset.update(cur, mut);
      action_cost.assign(aset.actions().size(), kPendingRuntime);
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

/// Section 4.2.1: "an initial complete sequence is generated as a candidate
/// and then iteratively refined" — the expert pass provides that sequence.
std::vector<Step> initialSequence(const ir::Program& kernel,
                                  const machines::Machine& m) {
  auto h = heuristicPass(kernel, m);
  std::vector<Step> steps;
  for (const auto& s : h.steps()) steps.push_back({s.transform, s.loc});
  return steps;
}

void randomSamplingHeuristic(const ir::Program& kernel,
                             const machines::Machine& m,
                             const SearchConfig& cfg, Eval& ev, Tracker& tr) {
  Rng rng(cfg.seed);
  std::vector<SeqState> pool;
  const double t0 = ev.cost(kernel);
  tr.record(kernel, t0);
  pool.push_back({{}, poolRuntime(t0), poolRuntime(t0)});
  // The replayer is bound to the last parent drawn (initially pool[0], the
  // empty sequence). Pool entries are immutable, so the checkpoints it
  // records while replaying a parent's prefix stay valid for as long as the
  // weighted draw keeps returning that parent.
  PrefixReplayer seq(kernel);
  std::size_t bound_pi = 0;
  {
    ir::Program prog = seq.stateAt(0);
    if (seq.replayTail(0, initialSequence(kernel, m), prog)) {
      const double rt = ev.cost(prog);
      tr.record(prog, rt);
      pool.push_back({seq.candidate(), poolRuntime(rt), poolRuntime(t0)});
    }
  }
  DeferredEvals batch(ev, tr);
  int barren = 0;
  while (!tr.exhausted(static_cast<int>(batch.inFlight())) && barren < 1024) {
    std::vector<double> w;
    w.reserve(pool.size());
    for (const auto& e : pool) w.push_back(1.0 / e.parent_runtime);
    const std::size_t pi = rng.weightedIndex(w);
    if (pool[pi].runtime == kPendingRuntime) batch.flush();
    if (pi != bound_pi) {
      seq.bind(pool[pi].steps);
      bound_pi = pi;
    }
    ir::Program prog;
    if (!seq.propose(m.caps(), rng, cfg.max_steps, prog)) {
      ++barren;
      continue;
    }
    barren = 0;
    const std::size_t slot = pool.size();
    pool.push_back({seq.candidate(), kPendingRuntime, pool[pi].runtime});
    batch.submit(std::move(prog), [&pool, slot](double rt) {
      pool[slot].runtime = poolRuntime(rt);
    });
    if (batch.inFlight() >= ev.batchLimit()) batch.flush();
    if (pool.size() > 4096) {
      batch.flush();
      pool.erase(pool.begin(), pool.begin() + 1024);
      bound_pi = static_cast<std::size_t>(-1);  // indices shifted
    }
  }
  batch.flush();
  if (!tr.exhausted()) tr.reason = TerminationReason::Stall;
}

void annealingHeuristic(const ir::Program& kernel, const machines::Machine& m,
                        const SearchConfig& cfg, Eval& ev, Tracker& tr) {
  Rng rng(cfg.seed);
  double cur_rt = ev.cost(kernel);
  const double base_rt = cur_rt;
  tr.record(kernel, cur_rt);
  // The incumbent starts as the empty sequence and the seed sequence is its
  // first candidate, so the seed replay itself records the checkpoints an
  // accept keeps.
  PrefixReplayer seq(kernel);
  {
    ir::Program prog = seq.stateAt(0);
    if (seq.replayTail(0, initialSequence(kernel, m), prog)) {
      const double rt = ev.cost(prog);
      tr.record(prog, rt);
      if (rt < cur_rt) {
        seq.accept();
        cur_rt = rt;
      }
    }
  }
  double temp = cfg.sa_t0;
  int barren = 0;  // consecutive failed proposals (mutation or replay)
  while (!tr.exhausted() && barren < 1024) {
    ir::Program prog;
    if (!seq.propose(m.caps(), rng, cfg.max_steps, prog)) {
      ++barren;
      continue;
    }
    barren = 0;
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
  const int threads = cfg.threads;  // 0 = auto inside ParallelEvaluator
  ParallelEvaluator pool(threads == 0 ? 0 : threads);
  Eval ev(m, cache, pool.threads() > 1 ? &pool : nullptr);

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
  r.stats.best_trace = r.trace;
  r.stats.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  if (cfg.telemetry) {
    // Cache hit/miss totals live here rather than in per-eval events: their
    // per-event split is thread-schedule dependent, the totals are not.
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
