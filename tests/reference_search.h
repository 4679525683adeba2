// Reference search loops (edges structure) and exact-tier ball, written
// from the definitions alone: every state's actions come from a fresh transform::allActions, every
// neighbor is a copy a.apply(p) priced by Machine::evaluate, and its identity
// is ir::canonicalHash of that copy. They make no use of DeltaContext,
// ActionSet or EvalCache, so a production run that matches them decision for
// decision proves its incremental machinery changes nothing.
#pragma once

#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include "ir/canonical.h"
#include "machines/machine.h"
#include "search/search.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "transform/transform.h"

namespace perfdojo::search::reference {

struct Run {
  double best_runtime = 0;
  ir::Program best;
  std::vector<double> trace;  // best-so-far after each evaluation
  /// Distinct canonical hashes priced — with a run-local memo table this is
  /// both unique_programs and machine_evals.
  std::int64_t unique_programs = 0;
};

/// As runSearch's tracker: a non-finite or negative cost never becomes best.
inline void record(Run& r, const ir::Program& p, double rt) {
  if (std::isfinite(rt) && rt >= 0 && rt < r.best_runtime) {
    r.best_runtime = rt;
    r.best = p;
  }
  r.trace.push_back(r.best_runtime);
}

/// Simulated annealing on the edges structure. Emits one sa_step event per
/// evaluation to `sink`, field for field as runSearch does, so the two
/// streams compare byte for byte. `memo_hit` is a re-draw of an already
/// priced action of the current state.
inline Run annealingEdges(const ir::Program& kernel,
                          const machines::Machine& m, const SearchConfig& cfg,
                          Telemetry& sink) {
  Run r;
  std::unordered_set<std::uint64_t> seen;
  auto price = [&](const ir::Program& p) {
    seen.insert(ir::canonicalHash(p));
    return m.evaluate(p);
  };
  Rng rng(cfg.seed);
  const double base_rt = price(kernel);
  r.best_runtime = 1e300;
  r.best = kernel;
  record(r, kernel, base_rt);
  ir::Program cur = kernel;
  double cur_rt = base_rt;
  double temp = cfg.sa_t0;
  int steps = 0;
  auto actions = transform::allActions(cur, m.caps());
  std::vector<double> memo(actions.size(), -1.0);
  while (static_cast<int>(r.trace.size()) < cfg.budget) {
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
    const ir::Program cand = actions[ai].apply(cur);
    const double rt = memo_hit ? memo[ai] : price(cand);
    memo[ai] = rt;
    record(r, cand, rt);
    const double delta = (rt - cur_rt) / base_rt;
    const bool accepted = saAccept(delta, temp, rng);
    sink.emit(Event("sa_step")
                  .integer("eval", static_cast<std::int64_t>(r.trace.size()))
                  .str("action", actions[ai].transform->name())
                  .str("loc", transform::locationToText(actions[ai].loc))
                  .num("runtime", rt)
                  .num("delta", delta)
                  .num("temp", temp)
                  .boolean("accepted", accepted)
                  .boolean("memo_hit", memo_hit));
    if (accepted) {
      cur = cand;
      cur_rt = rt;
      ++steps;
      actions = transform::allActions(cur, m.caps());
      memo.assign(actions.size(), -1.0);
    }
    temp *= cfg.sa_decay;
  }
  r.unique_programs = static_cast<std::int64_t>(seen.size());
  return r;
}

/// Cost-weighted global random sampling on the edges structure (paper
/// Section 4.2.2), fully serial: every child is priced as it is proposed.
inline Run randomSamplingEdges(const ir::Program& kernel,
                               const machines::Machine& m,
                               const SearchConfig& cfg) {
  struct Entry {
    ir::Program program;
    double runtime;
    double parent_runtime;
  };
  auto poolRuntime = [](double rt) {
    return (std::isfinite(rt) && rt > 0) ? rt : 1e300;
  };
  Run r;
  std::unordered_set<std::uint64_t> seen;
  auto price = [&](const ir::Program& p) {
    seen.insert(ir::canonicalHash(p));
    return m.evaluate(p);
  };
  Rng rng(cfg.seed);
  const double t0 = price(kernel);
  r.best_runtime = 1e300;
  r.best = kernel;
  record(r, kernel, t0);
  std::vector<Entry> pool = {{kernel, poolRuntime(t0), poolRuntime(t0)}};
  int barren = 0;
  while (static_cast<int>(r.trace.size()) < cfg.budget && barren < 1024) {
    std::vector<double> w;
    for (const auto& e : pool) w.push_back(1.0 / e.parent_runtime);
    const std::size_t pi = rng.weightedIndex(w);
    const auto actions = transform::allActions(pool[pi].program, m.caps());
    if (actions.empty()) {
      ++barren;
      continue;
    }
    barren = 0;
    ir::Program child =
        actions[rng.uniform(actions.size())].apply(pool[pi].program);
    const double rt = price(child);
    record(r, child, rt);
    const double parent_rt = pool[pi].runtime;
    pool.push_back({std::move(child), poolRuntime(rt), parent_rt});
    if (pool.size() > 4096) pool.erase(pool.begin(), pool.begin() + 1024);
  }
  r.unique_programs = static_cast<std::int64_t>(seen.size());
  return r;
}

/// The exact tier's answer, from the definitions: breadth-first over the
/// ball of radius `depth` around `kernel`, children as copies a.apply(p)
/// deduplicated by canonicalHash, priced by Machine::evaluate.
struct Ball {
  std::int64_t states = 0;  // distinct programs in the ball, root included
  double optimum = 0;       // cheapest finite cost among them
};

inline Ball exactBall(const ir::Program& kernel, const machines::Machine& m,
                      int depth) {
  Ball b;
  b.optimum = m.evaluate(kernel);
  std::unordered_set<std::uint64_t> visited = {ir::canonicalHash(kernel)};
  std::vector<ir::Program> frontier = {kernel};
  for (int level = 0; level < depth; ++level) {
    std::vector<ir::Program> next;
    for (const auto& p : frontier) {
      for (const auto& a : transform::allActions(p, m.caps())) {
        ir::Program q = a.apply(p);
        if (!visited.insert(ir::canonicalHash(q)).second) continue;
        const double cost = m.evaluate(q);
        if (std::isfinite(cost) && cost >= 0 && cost < b.optimum)
          b.optimum = cost;
        next.push_back(std::move(q));
      }
    }
    frontier = std::move(next);
  }
  b.states = static_cast<std::int64_t>(visited.size());
  return b;
}

/// The lines of a JSONL trace that carry `event`, in order.
inline std::string eventLines(const std::string& jsonl,
                              const std::string& event) {
  const std::string tag = "\"" + event + "\"";
  std::string out;
  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    std::size_t end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(begin, end - begin);
    if (line.find(tag) != std::string::npos) out += line + "\n";
    begin = end + 1;
  }
  return out;
}

}  // namespace perfdojo::search::reference
