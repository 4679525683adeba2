// Search over the transformation space (Section 4.2): two search-space
// structures (edges-based vs heuristic-based) crossed with two methods
// (cost-weighted global random sampling vs simulated annealing) — the four
// configurations compared in Figure 12.
//
// All four methods price candidates on the calling thread, through the
// memo table (EvalCache) when caching is on: evaluations of canonically
// identical programs are memoized. Random sampling draws each parent by the
// cost of the one before it, and annealing's acceptance needs each price
// before the next proposal, so there is nothing to hand to a worker pool.
// For a given seed the result is bit-identical with or without the cache.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "machines/machine.h"
#include "support/rng.h"
#include "transform/history.h"

namespace perfdojo {
class Telemetry;
}

namespace perfdojo::search {

class EvalCache;
class PriorModel;

enum class SearchMethod { RandomSampling, SimulatedAnnealing };
enum class SpaceStructure { Edges, Heuristic };

const char* searchMethodName(SearchMethod m);
const char* spaceStructureName(SpaceStructure s);

/// Why a search run stopped. Budget exhaustion is the normal ending for the
/// stochastic tiers; space exhaustion is the exact tier's certificate-grade
/// ending (every reachable state within the depth bound was enumerated);
/// stall means the tier ran out of applicable or replayable proposals before
/// spending its budget (dead-end kernel, barren mutation streak).
enum class TerminationReason { BudgetExhausted, SpaceExhausted, Stall };

/// Stable telemetry/CLI spelling: "budget_exhausted" | "space_exhausted" |
/// "stall".
const char* terminationReasonName(TerminationReason r);

struct SearchConfig {
  SearchMethod method = SearchMethod::SimulatedAnnealing;
  SpaceStructure structure = SpaceStructure::Heuristic;
  int budget = 1000;       // program evaluations (the paper's 1000-eval cap)
  int max_steps = 48;      // max transformation-sequence length
  std::uint64_t seed = 1;
  double sa_t0 = 0.6;      // initial acceptance temperature (relative)
  double sa_decay = 0.995; // per-evaluation temperature decay
  /// Ignored: every search tier here prices on the calling thread (only
  /// runExact's ExactConfig::threads starts workers). Kept because the
  /// repository benchmark sets it, until the next benchmark change drops it.
  int threads = 0;
  /// Memoize evaluations by canonical program hash. Costs are deterministic,
  /// so this changes wall-clock and raw machine-eval counts, never results.
  bool use_cache = true;
  /// Optional learned cost-model prior (search/prior.h) for the edges
  /// structure; runSearch throws Error for an active one (valid, topk > 0)
  /// on the heuristic structure. Each state's neighbors are scored from
  /// canonical text and only the prior_topk best-predicted stay drawable;
  /// the rest are skipped before any exact pricing and counted in
  /// SearchStats::prior_filtered. The prior chooses what gets priced, never
  /// what a price is. nullptr = no prior (the CLI's --no-prior).
  const PriorModel* prior = nullptr;
  /// Neighbors kept per state by the prior filter. 0 spells "all": the
  /// prior scores nothing, the draw stream is untouched, and traces are
  /// bit-identical to a run without a prior (kPriorTopkAll).
  int prior_topk = 0;
  /// Dataset-recording mode for `perfdojo train-prior`: stamps search_begin
  /// with `prior_schema` and adds each candidate's canonical program text to
  /// its search_eval event. Off by default — the extra fields mean traces
  /// only match older recordings when this is off.
  bool trace_programs = false;
  /// Optional JSONL event sink (nullptr = off). Per-evaluation and per-SA-step
  /// events are emitted in decision order, so for a given seed the trace is
  /// bit-identical from run to run.
  Telemetry* telemetry = nullptr;
};

/// Accounting of the evaluation layer for one search run.
struct SearchStats {
  std::int64_t evals_requested = 0;  // cost lookups issued by the search loop
  std::int64_t cache_hits = 0;       // served from the memo table
  /// Raw machine-model runs; machine_evals + cache_hits == evals_requested.
  std::int64_t machine_evals = 0;
  /// Always 0: no search tier prefetches neighbors any more. Kept only
  /// because the repository benchmark reads it (search.primed_frac), until
  /// the next benchmark change drops both. Not part of search_end.
  std::int64_t primed_evals = 0;
  std::int64_t unique_programs = 0;  // distinct canonical programs priced
  /// Candidates whose cost came back NaN/inf: never promoted to best, never
  /// accepted by annealing, stored in sampling pools only as a huge finite
  /// sentinel (a broken model cannot poison the search state).
  std::int64_t nonfinite_rejected = 0;
  /// Neighbors the learned prior filtered out before exact pricing, and
  /// kept candidates that were exact-priced while the prior was active.
  std::int64_t prior_filtered = 0;
  std::int64_t prior_kept = 0;
  /// Co-evolution diagnostics over the kept exact-priced candidates (0 when
  /// no prior was active): fraction that improved on their state, and the
  /// Spearman rank correlation of predicted vs exact cost. Also emitted on
  /// search_end, so accumulated traces grade the prior they were made with.
  double prior_hit_rate = 0;
  double prior_spearman = 0;
  double wall_ms = 0;                // wall-clock of the whole search
};

struct SearchResult {
  ir::Program best;
  double best_runtime = 0;
  int evals = 0;
  /// Best-so-far runtime after each evaluation (the convergence curves of
  /// Figure 12).
  std::vector<double> trace;
  /// Why the run stopped (also emitted as `reason` on the search_end event).
  TerminationReason reason = TerminationReason::BudgetExhausted;
  SearchStats stats;
};

SearchResult runSearch(const ir::Program& kernel, const machines::Machine& m,
                       const SearchConfig& cfg);

/// Variant sharing a caller-owned memo table, e.g. across the kernels of a
/// library-generation run (nullptr behaves like cfg.use_cache = false).
SearchResult runSearch(const ir::Program& kernel, const machines::Machine& m,
                       const SearchConfig& cfg, EvalCache* shared_cache);

/// Simulated-annealing acceptance rule (Metropolis): always accept an
/// improvement; accept a regression of relative size `delta` with
/// probability exp(-delta / temp). A non-finite delta (NaN/inf cost leaking
/// into the comparison) is rejected outright. Consumes one uniform draw iff
/// delta is finite and > 0, so degenerate costs do not perturb the RNG
/// stream of the surviving decisions.
bool saAccept(double delta, double temp, Rng& rng);

/// Temperature after `evals` recorded evaluations under the configured
/// geometric schedule: t0 * decay^evals.
double saTemperature(double t0, double decay, std::int64_t evals);

/// Expert action proposer used by the heuristic space structure: samples an
/// applicable action with weights encoding hardware knowledge (prefer
/// SSR/FREP on Snitch, vectorize/parallelize on CPU, grid/block on GPU, good
/// tile sizes everywhere). Returns false if no action is applicable.
bool suggestExpertAction(const ir::Program& p,
                         const transform::MachineCaps& caps, Rng& rng,
                         transform::Action& out);

}  // namespace perfdojo::search
