// Optimization passes (Section 4.1): deterministic transformation pipelines.
//
//  * naive     — imitates a programmer without architectural insight: fuse
//                scopes and reuse buffers until exhaustion.
//  * greedy    — naive + hardware-aware transformations applied exhaustively,
//                assuming they are always beneficial.
//  * heuristic — written by a "hardware expert": accounts for program
//                structure (e.g. tiling reduction nests by 4 on Snitch to
//                hide the FPU pipeline latency, vectorizing reductions via
//                partial accumulators on CPUs, grid/block mapping on GPUs).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "machines/machine.h"
#include "transform/history.h"

namespace perfdojo {
class Telemetry;
}

namespace perfdojo::search {

class EvalCache;

/// Applies the pass and returns the full transformation history (the
/// sequence is inspectable and replayable).
transform::History naivePass(ir::Program p, const machines::Machine& m);
transform::History greedyPass(ir::Program p, const machines::Machine& m);
transform::History heuristicPass(ir::Program p, const machines::Machine& m);

/// Runs all three passes and returns the history with the lowest machine
/// cost. Evaluations go through `cache` when provided — the pass results
/// frequently coincide with states a search run has already priced.
transform::History bestPass(ir::Program p, const machines::Machine& m,
                            EvalCache* cache = nullptr);

/// One step of a transformation sequence with the cost attribution of the
/// program state *after* the step. Entry 0 is the untransformed program
/// (empty transform/location).
struct StepAttribution {
  std::string transform;  // "" for the initial state
  std::string location;   // locationToText of where it was applied
  double cost = 0;        // machine cost after this step (seconds)
  machines::CostBreakdown breakdown;
};

/// Walks the states `h` recorded step by step, pricing every
/// intermediate state with evaluateDetailed — the paper's Fig. 9 manual
/// trace ("which transformation moved which cycles where"), automated.
/// When `sink` is given, one "transform_step" event per entry is emitted
/// with the cost delta and per-component breakdown.
std::vector<StepAttribution> attributeHistory(const transform::History& h,
                                              const machines::Machine& m,
                                              Telemetry* sink = nullptr);

/// Helpers shared by passes and the heuristic search neighborhoods.
namespace detail {

/// Applies `t` at its first applicable location repeatedly until none remain
/// or `max_apps` applications happened. Returns the number applied.
int applyExhaustively(transform::History& h, const transform::Transform& t,
                      const transform::MachineCaps& caps, int max_apps = 1000);

/// Applies `t` at the first location satisfying `pred` once; true on success.
bool applyFirst(transform::History& h, const transform::Transform& t,
                const transform::MachineCaps& caps,
                const std::function<bool(const ir::Program&,
                                         const transform::Location&)>& pred);

}  // namespace detail

}  // namespace perfdojo::search
