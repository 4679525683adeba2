#include "machines/snitch.h"

#include <algorithm>

#include "ir/program_index.h"
#include "ir/walk.h"
#include "support/common.h"

namespace perfdojo::machines {

using ir::LoopAnno;
using ir::Node;
using ir::NodeId;
using ir::Operand;
using ir::Program;

namespace {

constexpr double kFreqHz = 1e9;       // 1 GHz core clock
constexpr double kFpuLatency = 4.0;   // cycles, dependent-use latency
constexpr double kLoopOverhead = 2.0; // add + branch per iteration
constexpr double kSsrSetup = 12.0;    // stream configuration per loop entry
constexpr double kFrepSetup = 4.0;    // frep instruction issue
constexpr double kLoopSetup = 1.0;

/// Cycle accounting of the two pseudo dual-issue streams, split into the
/// attribution components the breakdown reports. The scalar cost is
/// max(int_cycles(), fp_cycles()) — whichever stream is critical.
struct Cost {
  double int_mem = 0;   // loads/stores issued by the integer stream
  double int_mov = 0;   // data-movement op issues
  double int_loop = 0;  // loop control + SSR/FREP setup
  double fp_issue = 0;  // FPU issue slots
  double fp_stall = 0;  // pipeline-latency stalls beyond the issue slot

  double int_cycles() const { return int_mem + int_mov + int_loop; }
  double fp_cycles() const { return fp_issue + fp_stall; }
};

/// Walks the tree top-down carrying the iteration multiplicity, so every
/// cycle can be attributed to the innermost enclosing scope's canonical
/// path (attribute mode) at no extra cost to the plain evaluation.
class Analyzer {
 public:
  explicit Analyzer(const Program& p, bool attribute = false)
      : p_(p), attribute_(attribute) {}

  Cost total() {
    walk(p_.root, /*streamed=*/false, {}, /*mult=*/1.0, /*path=*/"");
    return acc_;
  }

  /// Per-scope cycle shares of each stream (attribute mode only).
  const std::map<std::string, double>& intByScope() const { return int_by_scope_; }
  const std::map<std::string, double>& fpByScope() const { return fp_by_scope_; }

 private:
  /// enclosing: chain of (scope id, anno, extent) from outermost, used for
  /// dependency-chain analysis of accumulations.
  struct ScopeInfo {
    NodeId id;
    LoopAnno anno;
    std::int64_t extent;
  };

  void chargeInt(double cycles, const std::string& path, double Cost::*part) {
    acc_.*part += cycles;
    if (attribute_) int_by_scope_[path] += cycles;
  }

  void chargeFp(double cycles, const std::string& path, double Cost::*part) {
    acc_.*part += cycles;
    if (attribute_) fp_by_scope_[path] += cycles;
  }

  /// `path` is the canonical path of scope `n` itself ("" for the root);
  /// ops attribute to the innermost enclosing scope's path.
  void walk(const Node& n, bool streamed, std::vector<ScopeInfo> enclosing,
            double mult, const std::string& path) {
    if (n.isOp()) {
      opCost(n, streamed, enclosing, mult, path);
      return;
    }
    const bool is_root = n.id == p_.root.id;
    double child_mult = mult;
    if (!is_root) {
      double overhead = kLoopOverhead;
      double setup = kLoopSetup;
      switch (n.anno) {
        case LoopAnno::Unroll:
          overhead = 0;  // fully unrolled body, no branches
          setup = 0;
          break;
        case LoopAnno::Frep:
          overhead = 0;  // hardware loop
          setup = kSsrSetup + kFrepSetup;
          break;
        case LoopAnno::Ssr:
          overhead = kLoopOverhead;  // normal loop, streamed operands
          setup = kSsrSetup;
          break;
        default:
          break;
      }
      chargeInt(mult * static_cast<double>(n.extent) * overhead + mult * setup,
                path, &Cost::int_loop);
      child_mult = mult * static_cast<double>(n.extent);
      enclosing.push_back({n.id, n.anno, n.extent});
    }
    const bool stream_here =
        n.anno == LoopAnno::Ssr || n.anno == LoopAnno::Frep;
    for (std::size_t ci = 0; ci < n.children.size(); ++ci) {
      const Node& c = n.children[ci];
      walk(c, streamed || stream_here, enclosing, child_mult,
           c.isScope() ? path + scopePathSegment(ci, c) : path);
    }
  }

  void opCost(const Node& op, bool streamed,
              const std::vector<ScopeInfo>& enclosing, double mult,
              const std::string& path) {
    // Integer stream: one load per array operand, one store for the output,
    // unless an SSR stream covers this op. A loop-invariant accumulator is
    // register-allocated by any compiler, so its per-iteration load and
    // store are free (matching the paper's compiled naive baselines).
    const bool accumulates = ir::isAccumulation(op);
    const bool reg_acc = accumulates && !enclosing.empty() &&
                         !op.out.usesIter(enclosing.back().id);
    if (!streamed) {
      for (const auto& in : op.ins) {
        if (in.kind != Operand::Kind::Array) continue;
        if (reg_acc && in.access == op.out) continue;  // accumulator register
        chargeInt(mult, path, &Cost::int_mem);
      }
      if (!reg_acc) chargeInt(mult, path, &Cost::int_mem);  // store
    }
    if (op.op == ir::OpCode::Mov) {
      // Pure data movement occupies the integer pipeline only (absorbed by
      // the streams when streamed).
      if (!streamed) chargeInt(mult, path, &Cost::int_mov);
      return;
    }

    // FPU stream: issue cost 1; dependent accumulations carried by the
    // innermost repetition loop stall to the pipeline latency divided by the
    // number of independent chains interleaved by enclosed unrolling.
    double fp = 1.0;
    if (accumulates) {
      // Find the innermost enclosing scope whose iterator the output does
      // not use: that loop carries the dependence chain.
      int chain_depth = -1;
      for (int d = static_cast<int>(enclosing.size()) - 1; d >= 0; --d) {
        if (!op.out.usesIter(enclosing[static_cast<std::size_t>(d)].id)) {
          chain_depth = d;
          break;
        }
        // A scope whose iterator the output *does* use separates chains.
      }
      if (chain_depth >= 0) {
        // Independent chains: product of extents of unrolled scopes strictly
        // inside the chain-carrying loop whose iterators appear in the
        // output (each unrolled lane owns its own accumulator register).
        double chains = 1.0;
        for (std::size_t d = static_cast<std::size_t>(chain_depth) + 1;
             d < enclosing.size(); ++d) {
          const auto& s = enclosing[d];
          if (s.anno == LoopAnno::Unroll && op.out.usesIter(s.id))
            chains *= static_cast<double>(s.extent);
        }
        fp = std::max(1.0, kFpuLatency / chains);
      }
    }
    chargeFp(mult, path, &Cost::fp_issue);  // one FPU issue (fma = one slot)
    if (fp > 1.0) chargeFp(mult * (fp - 1.0), path, &Cost::fp_stall);
  }

  const Program& p_;
  const bool attribute_;
  Cost acc_;
  std::map<std::string, double> int_by_scope_;
  std::map<std::string, double> fp_by_scope_;
};

/// Arithmetic instruction count: the paper's peak metric assumes 1.0
/// instructions per cycle, so an fma counts once and movs are free.
std::int64_t instrCount(const Program& p) {
  std::int64_t total = 0;
  struct Frame {
    const Node* n;
    std::int64_t mult;
  };
  std::vector<Frame> stack{{&p.root, 1}};
  while (!stack.empty()) {
    auto [n, mult] = stack.back();
    stack.pop_back();
    if (n->isScope()) {
      for (const auto& c : n->children) stack.push_back({&c, mult * n->extent});
    } else if (n->op != ir::OpCode::Mov) {
      total += mult;
    }
  }
  return total;
}

class SnitchMachine final : public Machine {
 public:
  SnitchMachine() {
    caps_.name = "snitch";
    caps_.vector_widths = {};     // no packed-SIMD in this configuration
    caps_.has_parallel = false;   // single-core micro-kernel regime (Fig 7-9)
    caps_.is_gpu = false;
    caps_.has_ssr = true;
    caps_.has_frep = true;
    caps_.max_unroll = 8;
    caps_.split_factors = {2, 4, 8, 16, 32};
  }

  const std::string& name() const override {
    static const std::string n = "snitch";
    return n;
  }
  const transform::MachineCaps& caps() const override { return caps_; }

  double evaluate(const Program& p) const override {
    Analyzer a(p);
    const Cost c = a.total();
    return std::max(c.int_cycles(), c.fp_cycles()) / kFreqHz;
  }

  CostBreakdown evaluateDetailed(const Program& p) const override {
    Analyzer a(p, /*attribute=*/true);
    const Cost c = a.total();
    CostBreakdown b;
    // The pseudo dual-issue core runs both streams concurrently: the whole
    // runtime is the critical stream, so the breakdown decomposes that
    // stream (the other runs for free in its shadow).
    const bool fp_critical = c.fp_cycles() >= c.int_cycles();
    const auto& per_scope = fp_critical ? a.fpByScope() : a.intByScope();
    if (fp_critical) {
      b.compute = c.fp_issue / kFreqHz;
      b.pipeline_stall = c.fp_stall / kFreqHz;
    } else {
      b.compute = c.int_mov / kFreqHz;
      b.memory = c.int_mem / kFreqHz;
      b.loop_overhead = c.int_loop / kFreqHz;
    }
    for (const auto& [path, cycles] : per_scope)
      b.by_scope[path] = cycles / kFreqHz;
    return b;
  }

  double peakTime(const Program& p) const override {
    // Peak: 1 arithmetic instruction per cycle (paper's Section 4.1 metric).
    return static_cast<double>(std::max<std::int64_t>(instrCount(p), 1)) / kFreqHz;
  }

  double lowerBound(const Program& p) const override {
    // The fp stream charges one issue slot per non-Mov op instance no matter
    // how well SSR/FREP strip the int stream, so fp_cycles >= instrCount and
    // evaluate() >= instrCount/freq. No transform removes arithmetic ops
    // (splits/joins preserve extent products, partial_reduce only adds combine
    // ops), so the same floor holds for every descendant schedule.
    return static_cast<double>(instrCount(p)) / kFreqHz;
  }

 private:
  transform::MachineCaps caps_;
};

}  // namespace

SnitchReport snitchAnalyze(const Program& p) {
  Analyzer a(p);
  const Cost c = a.total();
  SnitchReport r;
  r.int_cycles = c.int_cycles();
  r.fp_cycles = c.fp_cycles();
  r.stall_cycles = c.fp_stall;
  r.cycles = std::max(c.int_cycles(), c.fp_cycles());
  r.flops = p.flopCount();
  const auto instrs = static_cast<double>(std::max<std::int64_t>(instrCount(p), 1));
  r.peak_fraction = r.cycles > 0 ? instrs / r.cycles : 0.0;
  return r;
}

const Machine& snitch() {
  static const SnitchMachine m;
  return m;
}

}  // namespace perfdojo::machines
