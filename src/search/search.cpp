#include "search/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <unordered_set>
#include <utility>

#include "ir/canonical.h"
#include "ir/incremental.h"
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
  /// The search loops downgrade this to Stall when they give up before the
  /// budget.
  TerminationReason reason = TerminationReason::BudgetExhausted;
  Telemetry* sink = nullptr;   // optional; record() runs on the decision
                               // thread only, so the event order is fixed
  bool trace_programs = false;  // add canonical text to search_eval events

  // Prior-gate accounting (the edges neighborhood fills these when a prior
  // is active): skipped neighbors, and (predicted, exact) pairs plus the
  // improving count for every kept candidate that reached exact pricing.
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

  /// Records one evaluation. `program` is asked for the candidate's program
  /// only when it becomes the best or, in dataset-recording mode, for its
  /// canonical text, so a candidate priced in place is built only then.
  void record(double runtime,
              const std::function<const ir::Program&()>& program) {
    ++evals;
    if (!admissible(runtime)) {
      ++nonfinite;
    } else if (runtime < best_runtime) {
      best_runtime = runtime;
      // A fresh copy, not a copy-assignment: that would keep the capacity
      // of every larger best before it, and callers keep results.
      best = ir::Program(program());
    }
    trace.push_back(best_runtime);
    if (!sink) return;
    Event e("search_eval");
    e.integer("eval", evals).num("runtime", runtime).num("best", best_runtime);
    if (trace_programs) e.str("program", ir::canonicalText(program()));
    sink->emit(e);
  }
};

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

  /// Rescores for a new current state. Each neighbor is rendered in place on
  /// the scratch of `delta()`, a context bound to the state, which is asked
  /// for only when the state is scored. Only the text is scored, so the
  /// neighbor is visited, not probed for its hash.
  void rebind(const std::vector<Action>& actions,
              const std::function<DeltaContext&()>& delta) {
    scores_.clear();
    allowed_.resize(actions.size());
    for (std::size_t i = 0; i < allowed_.size(); ++i) allowed_[i] = i;
    if (!active_ || actions.size() <= topk_) return;
    DeltaContext& dctx = delta();
    scores_.resize(actions.size());
    for (std::size_t i = 0; i < actions.size(); ++i) {
      std::string text;
      dctx.visit(actions[i],
                 [&](const ir::Program& q) { text = ir::canonicalText(q); });
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

/// What the parts of one search run share.
struct Run {
  const ir::Program& kernel;
  double kernel_rt;
  const machines::Machine& m;
  const SearchConfig& cfg;
  Eval& ev;
  Tracker& tr;
};

// --- Neighborhoods: both loops below drive either structure through bind,
//     propose (a candidate, or Retry or Stop), price, program (built on
//     first use), take (as a pool State), accept, cost, seed (the initial
//     candidate beyond the kernel, if any) and the sa_step fields. Every RNG
//     draw of a proposal happens in propose, so both loops draw alike.

enum class Proposal { Candidate, Retry, Stop };

/// Edges structure: states are programs, neighbors are single actions. A
/// candidate is priced in place on a DeltaContext bound to the current state
/// on first use (its hash is canonicalHash(a.apply(cur)) bit for bit) unless
/// a sampling pool already had it built; an accepted move is committed in
/// place, and one accepted right after its pricing is not applied again.
/// The ActionSet's list equals a fresh allActions. Each action's cost is
/// memoized per state, so a re-draw costs a lookup, not a pricing.
class EdgesNeighborhood {
 public:
  using State = ir::Program;

  explicit EdgesNeighborhood(const Run& run)
      : run_(run), gate_(run.cfg, run.tr) {
    bind(run.kernel, run.kernel_rt);
    dead_root_ = aset_.actions().empty();
  }

  const State& root() const { return run_.kernel; }
  std::optional<std::pair<State, double>> seed() { return std::nullopt; }

  /// `s` is not copied, so it must stay in place while it is bound.
  void bind(const State& s, double rt) {
    cur_ = &s;
    bound_to_delta_ = false;
    aset_.bind(s, run_.m.caps());
    refresh(rt);
    steps_ = 0;
  }

  /// An annealing walk starts again from the kernel once it reaches a dead
  /// end or max_steps. A dead-end kernel stops the search; a dead-end
  /// sampled parent only asks for another draw.
  Proposal propose(Rng& rng) {
    if (steps_ > 0 &&
        (aset_.actions().empty() || steps_ >= run_.cfg.max_steps))
      bind(run_.kernel, run_.kernel_rt);
    if (aset_.actions().empty())
      return dead_root_ ? Proposal::Stop : Proposal::Retry;
    const std::vector<std::size_t>& allowed = gate_.allowed();
    ai_ = allowed[rng.uniform(allowed.size())];
    built_.reset();
    return Proposal::Candidate;
  }

  double price() {
    memo_hit_ = run_.ev.memoizing() && cost_[ai_] != kUnpriced;
    if (memo_hit_) {
      run_.ev.countMemoHit();  // no apply, hash or evaluate
      return cost_[ai_];
    }
    double rt = 0;
    if (built_)
      rt = run_.ev.cost(*built_);
    else
      delta().neighborVisit(action(), [&](std::uint64_t h, const ir::Program& q) {
        rt = run_.ev.costInPlace(h, q);
      });
    gate_.note(ai_, rt, cur_rt_);
    return cost_[ai_] = rt;
  }

  const ir::Program& program() {
    if (!built_) built_ = action().apply(*cur_);
    return *built_;
  }

  State take() {
    program();
    return *std::exchange(built_, std::nullopt);
  }

  /// DeltaContext::accept commits the move (as price() left it applied,
  /// unless the price came from the memo) and rebases the canonical form in
  /// place; the ActionSet then enumerates the new base afresh (it reads
  /// nothing of the mutation summary).
  void accept(double rt) {
    ir::MutationSummary mut;
    cur_ = &delta().accept(action(), &mut);
    aset_.update(*cur_, mut);
    refresh(rt);
    ++steps_;
  }

  double cost() const { return cur_rt_; }

  void stepFields(Event& e) const {
    e.str("action", action().transform->name())
        .str("loc", transform::locationToText(action().loc));
  }
  void stepFlags(Event& e) const { e.boolean("memo_hit", memo_hit_); }

 private:
  static constexpr double kUnpriced = -1.0;  // cost_ entry not yet priced

  const Action& action() const { return aset_.actions()[ai_]; }

  /// The delta context, bound to the current state.
  DeltaContext& delta() {
    if (!bound_to_delta_) dctx_.bind(*cur_);
    bound_to_delta_ = true;
    return dctx_;
  }

  /// Clears the memo and rescores the prior gate for the current state.
  void refresh(double rt) {
    cost_.assign(aset_.actions().size(), kUnpriced);
    gate_.rebind(aset_.actions(), [&]() -> DeltaContext& { return delta(); });
    cur_rt_ = rt;
  }

  const Run& run_;
  PriorGate gate_;
  const ir::Program* cur_ = nullptr;  // the current state
  DeltaContext dctx_;
  bool bound_to_delta_ = false;  // dctx_'s base is the current state
  transform::ActionSet aset_;
  std::vector<double> cost_;          // per-action memo of the current state
  std::optional<ir::Program> built_;  // the candidate's program, once built
  std::size_t ai_ = 0;                // the candidate's action index
  bool memo_hit_ = false;             // the candidate's price came from cost_
  bool dead_root_ = false;            // no action applies to the kernel
  double cur_rt_ = 0;
  int steps_ = 0;  // accepted moves since the walk left the kernel
};

/// Heuristic structure: states are whole transformation sequences, refined
/// at arbitrary points (Section 4.2.1). The PrefixReplayer records the
/// current sequence's states, so a candidate replays only its edited tail.
class HeuristicNeighborhood {
 public:
  using State = std::vector<Step>;

  explicit HeuristicNeighborhood(const Run& run)
      : run_(run), seq_(run.kernel), cur_rt_(run.kernel_rt) {}

  State root() const { return {}; }

  /// Section 4.2.1's initial candidate is the expert pass's sequence. The
  /// pass recorded its states, so binding it replays nothing.
  std::optional<std::pair<State, double>> seed() {
    transform::History pass = heuristicPass(run_.kernel, run_.m);
    const double rt = run_.ev.cost(pass.current());
    run_.tr.record(rt, [&]() -> const ir::Program& { return pass.current(); });
    seq_.bind(std::move(pass));
    cur_rt_ = rt;
    return std::pair{seq_.steps(), rt};
  }

  void bind(const State& s, double rt) {
    seq_.bind(s);
    cur_rt_ = rt;
  }

  /// A proposal asks for another draw when no action applies at its edit
  /// point or the edited sequence no longer replays.
  Proposal propose(Rng& rng) {
    const bool ok = seq_.propose(run_.m.caps(), rng, run_.cfg.max_steps);
    return ok ? Proposal::Candidate : Proposal::Retry;
  }

  double price() { return run_.ev.cost(seq_.candidateProgram()); }
  const ir::Program& program() const { return seq_.candidateProgram(); }
  State take() const { return seq_.candidate(); }

  void accept(double rt) {
    seq_.accept();
    cur_rt_ = rt;
  }

  double cost() const { return cur_rt_; }

  void stepFields(Event& e) const {
    const State& cand = seq_.candidate();
    e.integer("seq_len", static_cast<std::int64_t>(cand.size()));
    if (!cand.empty())
      e.str("action", cand.back().transform->name())
          .str("loc", transform::locationToText(cand.back().loc));
  }
  void stepFlags(Event&) const {}

 private:
  const Run& run_;
  PrefixReplayer seq_;
  double cur_rt_;
};

/// Proposals in a row without a candidate after which a loop gives up.
constexpr int kBarrenLimit = 1024;

/// The count of barren proposals in a row after `p`; a Stop ends the loop.
int barrenAfter(int barren, Proposal p) {
  if (p == Proposal::Candidate) return 0;
  return p == Proposal::Retry ? barren + 1 : kBarrenLimit;
}

/// Runtimes stored in sampling pools feed 1/runtime draw weights; one NaN or
/// inf entry would poison every subsequent Rng::weightedIndex call. Store
/// degenerate costs as a huge-but-finite sentinel instead (weight ~0: such a
/// parent is effectively never drawn, matching the intent of rejecting it).
double poolRuntime(double rt) {
  return (std::isfinite(rt) && rt > 0) ? rt : 1e300;
}

/// Cost-weighted global random sampling (Section 4.2.2): each round draws a
/// pool entry with weight 1/(its parent's cost) and prices one neighbor.
template <class Space>
void sample(Space& sp, const Run& run, Rng& rng) {
  struct Entry {
    typename Space::State state;
    double runtime;
    double parent_runtime;  // cost used for sampling (paper Section 4.2.2)
  };
  const double root_rt = poolRuntime(run.kernel_rt);
  // A deque: an entry keeps its address while others are added or trimmed,
  // so the space can hold the bound entry's state without a copy.
  std::deque<Entry> pool{{sp.root(), root_rt, root_rt}};
  if (auto s = sp.seed())
    pool.push_back({std::move(s->first), poolRuntime(s->second), root_rt});
  // The space holds the entry made last. The draw concentrates on fast
  // parents, so the same entry is drawn many times in a row; it stays bound.
  std::size_t bound = pool.size() - 1;
  std::vector<double> w;
  int barren = 0;
  while (!run.tr.exhausted() && barren < kBarrenLimit) {
    // Sample proportionally to 1/parent_runtime: children of fast parents.
    w.clear();
    for (const Entry& e : pool) w.push_back(1.0 / e.parent_runtime);
    const std::size_t pi = rng.weightedIndex(w);
    if (pi != bound) sp.bind(pool[pi].state, pool[pi].runtime);
    bound = pi;
    barren = barrenAfter(barren, sp.propose(rng));
    if (barren > 0) continue;
    sp.program();  // built for the pool anyway, so it is priced whole
    const double rt = sp.price();
    run.tr.record(rt, [&]() -> const ir::Program& { return sp.program(); });
    pool.push_back({sp.take(), poolRuntime(rt), pool[pi].runtime});
    if (pool.size() > 4096) {
      pool.erase(pool.begin(), pool.begin() + 1024);
      bound = static_cast<std::size_t>(-1);  // indices shifted
    }
  }
}

/// Simulated annealing (Section 4.2.2): Metropolis acceptance of the cost
/// change relative to the kernel's cost, at a temperature that decays once
/// per recorded evaluation. A seed is the first incumbent only if it beats
/// the kernel.
template <class Space>
void anneal(Space& sp, const Run& run, Rng& rng) {
  if (const auto s = sp.seed(); s && !(s->second < run.kernel_rt))
    sp.bind(sp.root(), run.kernel_rt);
  double temp = run.cfg.sa_t0;
  int barren = 0;
  while (!run.tr.exhausted() && barren < kBarrenLimit) {
    barren = barrenAfter(barren, sp.propose(rng));
    if (barren > 0) continue;
    const double rt = sp.price();
    run.tr.record(rt, [&]() -> const ir::Program& { return sp.program(); });
    const double delta = (rt - sp.cost()) / run.kernel_rt;
    const bool accepted = saAccept(delta, temp, rng);
    if (run.cfg.telemetry) {
      Event e("sa_step");
      e.integer("eval", run.tr.evals);
      sp.stepFields(e);
      e.num("runtime", rt).num("delta", delta).num("temp", temp);
      e.boolean("accepted", accepted);
      sp.stepFlags(e);
      run.cfg.telemetry->emit(e);
    }
    if (accepted) sp.accept(rt);
    temp *= run.cfg.sa_decay;
  }
}

}  // namespace

SearchResult runSearch(const ir::Program& kernel, const machines::Machine& m,
                       const SearchConfig& cfg, EvalCache* shared_cache) {
  const auto start = std::chrono::steady_clock::now();
  const bool prior_active =
      cfg.prior != nullptr && cfg.prior->valid() && cfg.prior_topk > 0;
  // Only the edges neighborhood consults a prior; on the heuristic structure
  // it would silently do nothing.
  if (prior_active && cfg.structure == SpaceStructure::Heuristic)
    fail("runSearch: a prior with prior_topk > 0 needs the edges structure");
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
  Rng rng(cfg.seed);
  const double kernel_rt = ev.cost(kernel);
  tr.record(kernel_rt, [&]() -> const ir::Program& { return kernel; });
  const Run run{kernel, kernel_rt, m, cfg, ev, tr};
  auto search = [&](auto&& space) {
    if (cfg.method == SearchMethod::RandomSampling)
      sample(space, run, rng);
    else
      anneal(space, run, rng);
  };
  if (cfg.structure == SpaceStructure::Edges)
    search(EdgesNeighborhood(run));
  else
    search(HeuristicNeighborhood(run));
  if (!tr.exhausted()) tr.reason = TerminationReason::Stall;
  SearchResult r;
  r.best = std::move(tr.best);
  r.best_runtime = tr.best_runtime;
  r.evals = tr.evals;
  r.reason = tr.reason;
  r.trace = std::move(tr.trace);
  ev.fillStats(r.stats);
  r.stats.nonfinite_rejected = tr.nonfinite;
  // Co-evolution diagnostics: how the prior's predictions fared against the
  // exact prices it let through.
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
