// Machine models: the performance oracles of the PerfDojo game.
//
// Substitution note (see DESIGN.md): the paper measures on real Snitch RTL,
// a Xeon E5-2695 v4, an NVIDIA GH200 and an AMD MI300A. Here each target is a
// deterministic analytic model that prices exactly the mechanisms the paper's
// results hinge on (pipeline latency & SSR/FREP on Snitch; coalescing,
// vector-load width, block padding and launch overhead on GPUs; vector lanes,
// cores and memory traffic on x86). Schedules are compared under the same
// model on both sides of every comparison, so rankings and rough factors are
// preserved even though absolute times are synthetic.
#pragma once

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "ir/program.h"
#include "support/common.h"
#include "transform/transform.h"

namespace perfdojo::machines {

/// Where the modeled time of a program goes. All components are in seconds
/// and sum to evaluate() (enforced by tests at 1e-9 relative tolerance), so
/// a breakdown is a lossless explanation of the scalar cost — the Fig. 7-9 /
/// Fig. 13-14 narratives (stalls, coalescing, launch overhead) made
/// machine-readable.
struct CostBreakdown {
  double compute = 0;         // issue-/throughput-limited instruction time
  double pipeline_stall = 0;  // dependence stalls / latency-boundedness
  double memory = 0;          // memory-traffic time on the critical path
  double loop_overhead = 0;   // loop control, setup, branch bookkeeping
  double launch_overhead = 0; // kernel launches, fork/join, call overhead
  /// Per-scope attribution, keyed by the scope's canonical path (see
  /// scopePathSegment); "" is host/root-level time. Values are seconds and
  /// also sum to total().
  std::map<std::string, double> by_scope;

  double total() const {
    return compute + pipeline_stall + memory + loop_overhead + launch_overhead;
  }
};

/// Canonical attribution key of one scope along the path from the root:
/// "/<child-index>:<extent><anno-suffix>" — e.g. "/0:256:f". Concatenating
/// segments from the root yields a stable, human-readable scope path that
/// survives re-evaluation (unlike NodeIds, which are fresh per history).
inline std::string scopePathSegment(std::size_t child_index,
                                    const ir::Node& scope) {
  return "/" + std::to_string(child_index) + ":" +
         std::to_string(scope.extent) + ir::loopAnnoSuffix(scope.anno);
}

class Machine {
 public:
  virtual ~Machine() = default;

  virtual const std::string& name() const = 0;

  /// Capabilities handed to the transformation library — the only channel
  /// through which search methods learn about the hardware.
  virtual const transform::MachineCaps& caps() const = 0;

  /// Modeled runtime in seconds for one execution of the program.
  ///
  /// Re-entrancy contract: evaluate() must be a pure function of `p` with no
  /// shared mutable state — the exact tier's workers (search::
  /// ParallelEvaluator) and the tuning server's concurrent searches call it
  /// from several threads at once, and the
  /// memo table (search::EvalCache) assumes two evaluations of canonically
  /// identical programs return the same cost. All in-tree models satisfy
  /// this by construction: each call builds its own local analyzer.
  virtual double evaluate(const ir::Program& p) const = 0;

  /// Cost attribution: evaluate(), decomposed into CostBreakdown components
  /// and per-scope shares. Same purity/re-entrancy contract as evaluate().
  /// More expensive than evaluate() (it builds attribution maps), so the
  /// EvalCache/ParallelEvaluator hot paths never call it — only telemetry,
  /// the `profile` subcommand and the benches do.
  virtual CostBreakdown evaluateDetailed(const ir::Program& p) const = 0;

  /// Runtime of a perfect implementation (used for %-of-peak reporting).
  virtual double peakTime(const ir::Program& p) const = 0;

  /// Admissible lower bound for the exact search tier: a cost that provably
  /// never exceeds evaluate() — neither for `p` itself nor for any program
  /// reachable from `p` through this machine's transformation library
  /// (transform::allActions under caps()). Bounds are derived from the
  /// model's peak roofline over quantities that transformations can only
  /// preserve or grow (flop count, arithmetic instruction count), so
  /// search::ExactTier may prune a state whenever lowerBound(state) is
  /// already >= the best cost found: no descendant can beat it. The default
  /// (0) is trivially admissible and prunes nothing; each in-tree model
  /// overrides it with its provable floor. Same purity/re-entrancy contract
  /// as evaluate().
  virtual double lowerBound(const ir::Program& p) const {
    (void)p;
    return 0.0;
  }

  double peakFraction(const ir::Program& p) const {
    const double t = evaluate(p);
    // A broken model must fail loudly here, not report "0% of peak".
    require(std::isfinite(t) && t > 0,
            "Machine::peakFraction: " + name() +
                "::evaluate() returned a non-positive or non-finite cost");
    return peakTime(p) / t;
  }
};

/// Snitch RISC-V cluster core: single-issue, pseudo dual-issue FP/int
/// streams, 4-cycle FPU latency, SSR + FREP extensions. 1 GHz.
const Machine& snitch();

/// 18-core Intel Xeon E5-2695 v4-like CPU with 256/512-bit vectors.
const Machine& xeon();

/// NVIDIA GH200-like GPU (warp 32).
const Machine& gh200();

/// AMD MI300A-like GPU (wavefront 64).
const Machine& mi300a();

const Machine* findMachine(const std::string& name);

}  // namespace perfdojo::machines
