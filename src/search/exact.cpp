#include "search/exact.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "ir/canonical.h"
#include "ir/incremental.h"
#include "search/delta.h"
#include "search/parallel_eval.h"
#include "support/common.h"
#include "support/numeric.h"
#include "support/telemetry.h"
#include "transform/action_set.h"

namespace perfdojo::search {

using transform::Action;
using transform::History;
using transform::Step;

namespace {

/// One compressed frontier state: canonical hash + replay path. Programs are
/// re-materialized per expansion, never held across levels.
struct Entry {
  std::uint64_t hash = 0;
  std::vector<Step> steps;
};

/// Expansion of one frontier entry, produced by workers: the materialized
/// program, its applicable actions, and each child's canonical hash.
struct Expansion {
  ir::Program program;
  std::vector<Action> actions;
  std::vector<std::uint64_t> hashes;
};

/// A child admitted by the serial dedup sweep, awaiting pricing.
struct Fresh {
  std::size_t entry = 0;   // index into the current chunk's expansions
  std::size_t action = 0;  // index into that expansion's action list
  std::uint64_t hash = 0;
  double cost = 0;
  double lower = 0;
};

/// Chunk width of the level processing loop. A fixed constant — NOT derived
/// from the thread count — so the serial sweeps see identical boundaries at
/// any `threads` setting (the bit-identity contract).
constexpr std::size_t kChunk = 128;

ir::Program replayOrThrow(const ir::Program& kernel,
                          const std::vector<Step>& steps) {
  History::ReplayResult rr;
  auto p = History::replay(kernel, steps, rr);
  require(p.has_value(),
          "exact tier: recorded trajectory failed to replay: " + rr.message);
  return std::move(*p);
}

/// Re-materializes a frontier entry while splicing its action index along:
/// `aset` starts as a copy of the kernel-bound set and is updated from each
/// replayed step's mutation summary — one splice per step instead of a full
/// 20-transform enumeration of the final program. The resulting list is
/// element-identical to allActions on the replayed program.
ir::Program replayIndexed(const ir::Program& kernel,
                          const std::vector<Step>& steps,
                          const transform::ActionSet& kernel_set,
                          transform::ActionSet& aset) {
  aset = kernel_set;
  ir::Program p = kernel;
  for (const Step& s : steps) {
    ir::MutationSummary mut;
    try {
      s.transform->applyInPlace(p, s.loc, &mut, /*validate=*/true);
    } catch (const std::exception& e) {
      require(false, "exact tier: recorded trajectory failed to replay: " +
                         std::string(e.what()));
    }
    aset.update(p, mut);
  }
  return p;
}

std::string witnessJson(const std::vector<Step>& steps) {
  std::string out = "[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i) out += ",";
    out += "{\"transform\":\"" + jsonEscape(steps[i].transform->name()) +
           "\",\"loc\":\"" + jsonEscape(transform::locationToText(steps[i].loc)) +
           "\"}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string ExactCertificate::toJson() const {
  std::string out = "{\"type\":\"exact_certificate\"";
  out += ",\"kernel\":\"" + jsonEscape(kernel) + "\"";
  out += ",\"machine\":\"" + jsonEscape(machine) + "\"";
  out += ",\"depth\":" + std::to_string(depth);
  out += std::string(",\"complete\":") + (complete ? "true" : "false");
  out += ",\"states\":" + std::to_string(states);
  out += ",\"expanded\":" + std::to_string(expanded);
  out += ",\"pruned\":" + std::to_string(pruned);
  out += ",\"base_cost\":" + formatDouble(base_cost);
  out += ",\"optimal_cost\":" + formatDouble(optimal_cost);
  out += ",\"witness\":" + witnessJson(witness);
  if (sa_gate > 0) out += ",\"sa_gate\":" + formatDouble(sa_gate);
  if (heuristic_gate > 0)
    out += ",\"heuristic_gate\":" + formatDouble(heuristic_gate);
  out += "}";
  return out;
}

bool parseCertificate(const std::string& json, ExactCertificate& out,
                      std::string* error) {
  JsonValue doc;
  if (!parseJson(json, doc, error)) return false;
  auto bad = [&](const std::string& msg) {
    if (error) *error = "exact certificate: " + msg;
    return false;
  };
  if (doc.kind != JsonValue::Kind::Object) return bad("not a JSON object");
  if (doc.stringOr("type", "") != "exact_certificate")
    return bad("missing type discriminator");
  ExactCertificate c;
  c.kernel = doc.stringOr("kernel", "");
  c.machine = doc.stringOr("machine", "");
  c.depth = static_cast<int>(doc.numberOr("depth", 0));
  c.complete = doc.boolOr("complete", false);
  c.states = static_cast<std::int64_t>(doc.numberOr("states", 0));
  c.expanded = static_cast<std::int64_t>(doc.numberOr("expanded", 0));
  c.pruned = static_cast<std::int64_t>(doc.numberOr("pruned", 0));
  c.base_cost = doc.numberOr("base_cost", 0);
  c.optimal_cost = doc.numberOr("optimal_cost", 0);
  c.sa_gate = doc.numberOr("sa_gate", 0);
  c.heuristic_gate = doc.numberOr("heuristic_gate", 0);
  if (c.kernel.empty() || c.machine.empty() || c.depth <= 0)
    return bad("missing kernel/machine/depth");
  const JsonValue* w = doc.find("witness");
  if (w == nullptr || w->kind != JsonValue::Kind::Array)
    return bad("missing witness array");
  for (const JsonValue& s : w->array) {
    const std::string name = s.stringOr("transform", "");
    const transform::Transform* t = transform::findTransform(name);
    if (t == nullptr) return bad("unknown transform '" + name + "'");
    transform::Location loc;
    if (!transform::locationFromText(s.stringOr("loc", ""), loc))
      return bad("malformed witness location for '" + name + "'");
    c.witness.push_back({t, loc});
  }
  out = std::move(c);
  return true;
}

SearchConfig exactGateSearchConfig() {
  // Deliberately small: the gate measures the stochastic tiers on the same
  // tiny kernels the exact tier can prove, so a few hundred evaluations is
  // the regime the recorded ratios were taken in. Fixed seed, fully
  // deterministic at any thread count (runSearch's own contract).
  SearchConfig cfg;
  cfg.method = SearchMethod::SimulatedAnnealing;
  cfg.structure = SpaceStructure::Heuristic;
  cfg.budget = 300;
  cfg.max_steps = 12;
  cfg.seed = 1;
  return cfg;
}

ExactResult runExact(const ir::Program& kernel, const machines::Machine& m,
                     const ExactConfig& cfg) {
  require(cfg.depth >= 1, "exact tier: depth must be >= 1");
  require(cfg.max_states >= 1, "exact tier: max_states must be >= 1");
  const auto start = std::chrono::steady_clock::now();
  ParallelEvaluator pool(cfg.threads == 0 ? 0 : cfg.threads);
  ParallelEvaluator* workers = pool.threads() > 1 ? &pool : nullptr;
  const auto& caps = m.caps();

  ExactResult r;
  r.threads_used = pool.threads();
  const double base_cost = m.evaluate(kernel);
  ++r.machine_evals;
  require(std::isfinite(base_cost) && base_cost >= 0,
          "exact tier: machine '" + m.name() +
              "' priced the source program non-finite or negative");

  if (cfg.telemetry)
    cfg.telemetry->emit(Event("exact_begin")
                            .str("machine", m.name())
                            .str("kernel", cfg.kernel_label)
                            .integer("depth", cfg.depth)
                            .integer("max_states", cfg.max_states)
                            .boolean("prune", cfg.prune)
                            .boolean("dedup", cfg.dedup));

  // Kernel action index, bound once and copied per worker replay (each
  // worker owns its copy, so the shared one stays untouched). The maintained
  // lists are element-identical to fresh enumerations, so visit order and
  // dedup sequence are exactly the definition's.
  transform::ActionSet kernel_set;
  kernel_set.bind(kernel, caps);

  double best_cost = base_cost;
  std::vector<Step> best_steps;
  const std::uint64_t root_hash = ir::canonicalHash(kernel);
  std::unordered_set<std::uint64_t> visited;
  visited.insert(root_hash);
  std::int64_t states = 1, expanded = 0, pruned = 0;
  bool budget_tripped = states >= cfg.max_states;
  std::vector<Entry> frontier;
  frontier.push_back({root_hash, {}});
  int level = 0;

  while (level < cfg.depth && !frontier.empty() && !budget_tripped) {
    ++level;
    std::vector<Entry> next;
    std::int64_t level_fresh = 0, level_dupes = 0, level_pruned = 0;
    for (std::size_t base = 0; base < frontier.size() && !budget_tripped;
         base += kChunk) {
      const std::size_t n = std::min(kChunk, frontier.size() - base);
      // Phase A (workers): re-materialize each chunk entry from its replay
      // path, enumerate its actions, hash every child. Pure per-entry work.
      std::vector<Expansion> ex(n);
      auto expand = [&](std::size_t i) {
        transform::ActionSet aset;
        ex[i].program = replayIndexed(kernel, frontier[base + i].steps,
                                      kernel_set, aset);
        ex[i].actions = aset.actions();
        ex[i].hashes.resize(ex[i].actions.size());
        DeltaContext dctx;
        dctx.bind(ex[i].program);
        for (std::size_t j = 0; j < ex[i].actions.size(); ++j)
          ex[i].hashes[j] = dctx.neighborHash(ex[i].actions[j]);
      };
      if (workers)
        workers->forEach(n, expand);
      else
        for (std::size_t i = 0; i < n; ++i) expand(i);
      expanded += static_cast<std::int64_t>(n);
      // Phase B (serial): dedup sweep in (entry, action) order against the
      // global visited set; the state budget is charged here, in the same
      // order, so the admitted set is independent of thread count.
      std::vector<Fresh> fresh;
      for (std::size_t i = 0; i < n && !budget_tripped; ++i) {
        for (std::size_t j = 0; j < ex[i].actions.size(); ++j) {
          const std::uint64_t h = ex[i].hashes[j];
          if (cfg.dedup && !visited.insert(h).second) {
            ++level_dupes;
            continue;
          }
          if (states >= cfg.max_states) {
            budget_tripped = true;
            break;
          }
          ++states;
          fresh.push_back({i, j, h, 0, 0});
        }
      }
      // Phase C (workers): price the admitted children. Costs are pure
      // functions of the program, so order of computation is irrelevant.
      auto price = [&](std::size_t fi) {
        Fresh& f = fresh[fi];
        const ir::Program child =
            ex[f.entry].actions[f.action].apply(ex[f.entry].program);
        f.cost = m.evaluate(child);
        f.lower = cfg.prune ? m.lowerBound(child) : 0.0;
      };
      if (workers)
        workers->forEach(fresh.size(), price);
      else
        for (std::size_t fi = 0; fi < fresh.size(); ++fi) price(fi);
      r.machine_evals += static_cast<std::int64_t>(fresh.size());
      // Phase D (serial): best-update then prune, again in admission order.
      // The bound is admissible for the child AND all its descendants, so a
      // child whose floor already meets the best can be dropped from the
      // next frontier without losing the optimum.
      for (const Fresh& f : fresh) {
        if (std::isfinite(f.cost) && f.cost >= 0 && f.cost < best_cost) {
          best_cost = f.cost;
          best_steps = frontier[base + f.entry].steps;
          const Action& a = ex[f.entry].actions[f.action];
          best_steps.push_back({a.transform, a.loc});
        }
        if (level >= cfg.depth) continue;  // leaves: never expanded
        if (cfg.prune && std::isfinite(f.lower) && f.lower >= best_cost) {
          ++level_pruned;
          continue;
        }
        Entry e;
        e.hash = f.hash;
        e.steps = frontier[base + f.entry].steps;
        const Action& a = ex[f.entry].actions[f.action];
        e.steps.push_back({a.transform, a.loc});
        next.push_back(std::move(e));
      }
      level_fresh += static_cast<std::int64_t>(fresh.size());
    }
    pruned += level_pruned;
    if (cfg.telemetry)
      cfg.telemetry->emit(Event("exact_level")
                              .integer("level", level)
                              .integer("frontier",
                                       static_cast<std::int64_t>(frontier.size()))
                              .integer("fresh", level_fresh)
                              .integer("dupes", level_dupes)
                              .integer("pruned", level_pruned)
                              .integer("states", states)
                              .num("best", best_cost));
    frontier = std::move(next);
  }

  r.reason = budget_tripped ? TerminationReason::BudgetExhausted
                            : TerminationReason::SpaceExhausted;
  r.best_cost = best_cost;
  r.best = best_steps.empty() ? kernel : replayOrThrow(kernel, best_steps);
  r.cert.kernel = cfg.kernel_label;
  r.cert.machine = m.name();
  r.cert.depth = cfg.depth;
  r.cert.complete = !budget_tripped;
  r.cert.states = states;
  r.cert.expanded = expanded;
  r.cert.pruned = pruned;
  r.cert.base_cost = base_cost;
  r.cert.optimal_cost = best_cost;
  r.cert.witness = std::move(best_steps);
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  if (cfg.telemetry)
    cfg.telemetry->emit(Event("exact_end")
                            .str("reason", terminationReasonName(r.reason))
                            .boolean("complete", r.cert.complete)
                            .integer("levels", level)
                            .integer("states", states)
                            .integer("expanded", expanded)
                            .integer("pruned", pruned)
                            .num("base_cost", base_cost)
                            .num("optimal_cost", best_cost)
                            .num("wall_ms", r.wall_ms));
  return r;
}

}  // namespace perfdojo::search
