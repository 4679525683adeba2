// Exact search tier: breadth-first exhaustive enumeration of the
// transformation graph to a depth bound, with optimality certificates
// (ROADMAP item 3; the percy-style canonical-DAG enumeration idea applied to
// the PerfDojo transformation space).
//
// The frontier is compressed: a state is a canonical hash plus the replay
// path (transform::Step sequence) that reaches it from the kernel — programs
// are re-materialized per expansion by replaying that path instead of being
// held resident, so memory stays O(frontier), not O(frontier * tree).
// States are deduped by the incremental canonical hash (bit-exact), child
// hashes are priced incrementally through DeltaContext, and subtrees are
// pruned by Machine::lowerBound — an admissible per-model floor that
// provably never exceeds evaluate() for the state or any of its descendants.
//
// Determinism contract (mirrors runSearch): dedup, best-update, pruning and
// budget decisions all happen on the calling thread in a fixed
// (frontier-entry, action) order; ParallelEvaluator workers only replay,
// hash and price. Results, certificates and telemetry traces are
// bit-identical for any thread count.
//
// When the frontier drains before the state budget, the result carries an
// optimality certificate: within depth `k`, no schedule of the kernel on the
// machine costs less than `optimal_cost`, and `witness` replays to one that
// achieves it. When the budget trips first, the same data is a best-effort
// bound (complete = false, reason = budget_exhausted).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machines/machine.h"
#include "search/search.h"
#include "transform/history.h"

namespace perfdojo::search {

struct ExactConfig {
  int depth = 3;                     // expand the full ball of this radius
  std::int64_t max_states = 200000;  // distinct-state budget (>= 1)
  /// Worker threads for expansion/pricing; 0 = hardware_concurrency,
  /// 1 = fully serial. Results do not depend on this value.
  int threads = 0;
  /// Lower-bound pruning: drop a frontier state when its admissible floor
  /// already meets the best cost found. Never changes the optimal cost
  /// (enforced by the soundness suite), only the states visited.
  bool prune = true;
  /// Canonical-hash dedup of states. Disabling it turns the tier into the
  /// brute-force tree enumeration the property tests compare against.
  bool dedup = true;
  std::string kernel_label;  // recorded in the certificate
  Telemetry* telemetry = nullptr;
};

/// The proof object of a completed run — everything needed to check the
/// claim later: re-run the tier with the same kernel/machine/depth and the
/// counts and costs must reproduce bit-identically; replay `witness` and the
/// machine must price it at `optimal_cost`.
struct ExactCertificate {
  std::string kernel;
  std::string machine;
  int depth = 0;
  /// True iff the frontier drained within the state budget — the
  /// space-exhausted case where `optimal_cost` is proven minimal over the
  /// whole depth-`depth` ball. False = best-effort bound only.
  bool complete = false;
  std::int64_t states = 0;    // distinct states admitted (incl. the root)
  std::int64_t expanded = 0;  // states whose actions were enumerated
  std::int64_t pruned = 0;    // fresh states dropped by the lower bound
  double base_cost = 0;       // evaluate() of the untransformed kernel
  double optimal_cost = 0;    // minimum cost over all admitted states
  std::vector<transform::Step> witness;  // replay path achieving optimal_cost
  /// Quality gates recorded alongside checked-in baselines: the SA /
  /// heuristic tiers must land within this factor of optimal_cost (0 = no
  /// gate recorded). Not part of the proof; carried so one JSON file is the
  /// whole regression baseline.
  double sa_gate = 0;
  double heuristic_gate = 0;

  /// One-line JSON with a fixed field order and shortest-round-trip number
  /// formatting — bit-comparable across runs, platforms and thread counts.
  std::string toJson() const;
};

/// Parses toJson() output (transform names resolved against the library).
/// Returns false and fills `error` (when given) on malformed input.
bool parseCertificate(const std::string& json, ExactCertificate& out,
                      std::string* error = nullptr);

struct ExactResult {
  ir::Program best;       // materialized witness (the kernel itself if no
                          // transformed state beat it)
  double best_cost = 0;   // == cert.optimal_cost
  TerminationReason reason = TerminationReason::BudgetExhausted;
  ExactCertificate cert;
  std::int64_t machine_evals = 0;  // evaluate() calls (== states with dedup)
  int threads_used = 1;
  double wall_ms = 0;
};

/// Runs the exact tier. Telemetry (when configured): one `exact_begin`, one
/// `exact_level` per completed BFS level, one `exact_end` carrying the
/// termination reason — wall_ms is the only field that varies across runs.
ExactResult runExact(const ir::Program& kernel, const machines::Machine& m,
                     const ExactConfig& cfg);

/// The canonical SA configuration the optimality gate measures (tests and
/// the `certs` tooling must agree on it, or recorded gates are meaningless).
SearchConfig exactGateSearchConfig();

}  // namespace perfdojo::search
