// partial_reduce: reassociates a reduction loop into `k` independent partial
// accumulators plus a combine loop. This is the transformation behind both
// the Snitch heuristic's tile-by-4 (4 independent FPU dependence chains hide
// the 4-cycle latency) and vectorized reductions on CPUs.
//
//   S(N) { acc op= f(...) }            (out does not use iter(S))
// becomes
//   init(k)    { part[j] = identity }
//   S'(N/k)    { inner(k) { part[j] op= f(... S -> S'*k + j ...) } }
//   combine(k) { acc op= part[j] }
//
// Valid for associative+commutative combiners (add/mul/max/min and the
// additive accumulator of fma); floating-point reassociation is tolerated by
// the numerical verifier exactly as in the paper.
#include <algorithm>

#include "ir/walk.h"
#include "support/common.h"
#include "transform/checked.h"
#include "transform/deps.h"
#include "transform/transform.h"

namespace perfdojo::transform {

using ir::Access;
using ir::IndexExpr;
using ir::LoopAnno;
using ir::Node;
using ir::NodeId;
using ir::OpCode;
using ir::Operand;
using ir::Program;

namespace {

bool reductionIdentity(OpCode op, double& identity, OpCode& combine) {
  switch (op) {
    case OpCode::Add:
      identity = 0.0;
      combine = OpCode::Add;
      return true;
    case OpCode::Fma:
      identity = 0.0;
      combine = OpCode::Add;
      return true;
    case OpCode::Mul:
      identity = 1.0;
      combine = OpCode::Mul;
      return true;
    case OpCode::Max:
      identity = -1.0 / 0.0;
      combine = OpCode::Max;
      return true;
    case OpCode::Min:
      identity = 1.0 / 0.0;
      combine = OpCode::Min;
      return true;
    default:
      return false;
  }
}

class PartialReduce final : public ScopeSiteTransform {
 public:
  std::string name() const override { return "partial_reduce"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc);
    return s != nullptr && wrapsOneOp(*s) && splitsInto(*s, loc.param) &&
           reducible(*s, ir::opInfo(p, s->children[0]));
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps& caps) const override {
    // The candidate accumulator counts depend on the caps alone.
    std::vector<std::int64_t> ks = {2, 4, 8, 16};
    for (std::int64_t w : caps.vector_widths)
      if (std::find(ks.begin(), ks.end(), w) == ks.end()) ks.push_back(w);
    return scopeSites(ix, [&](const Node& s, std::vector<Location>& out) {
      if (!wrapsOneOp(s) || !reducible(s, ix.ops(s.id).front())) return;
      for (std::int64_t k : ks)
        if (splitsInto(s, k)) out.push_back(at(s.id, k));
    });
  }

 private:
  static bool wrapsOneOp(const Node& s) {
    return s.anno == LoopAnno::None && s.children.size() == 1 &&
           s.children[0].isOp();
  }

  /// Scope `s`, wrapping the single op described by `info`, is a reduction
  /// that partial accumulators may reassociate.
  static bool reducible(const Node& s, const ir::OpInfo& info) {
    const Node& op = *info.op;
    if (!info.is_accumulation) return false;
    if (op.out.usesIter(s.id)) return false;  // must reduce over S
    double identity;
    OpCode combine;
    if (!reductionIdentity(op.op, identity, combine)) return false;
    // Non-accumulator operands must not alias the accumulator.
    for (const AccessRef& r : info.reads()) {
      if (*r.access == op.out) continue;
      if (mayAlias(info.write, r)) return false;
    }
    return true;
  }

  /// Scope `s` splits into `k` partial accumulators.
  static bool splitsInto(const Node& s, std::int64_t k) {
    return k >= 2 && k <= 64 && s.extent % k == 0 && s.extent != k;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // init/combine loops are inserted as siblings of S, and a fresh partial
    // buffer joins the header.
    reportDirtySubtree(ir::findParent(q.root, loc.node)->id);
    reportBuffersChanged();
    Node* s = ir::findNode(q.root, loc.node);
    const std::int64_t k = loc.param;
    Node op = std::move(s->children[0]);
    double identity;
    OpCode combine;
    require(reductionIdentity(op.op, identity, combine),
            "partial_reduce: opcode lost its identity");

    // Fresh partial buffer.
    const std::string part = "__part" + std::to_string(q.next_id);
    ir::Buffer pb;
    pb.name = part;
    pb.dtype = q.bufferOfArray(op.out.array)->dtype;
    pb.shape = {k};
    pb.materialized = {true};
    pb.space = ir::MemSpace::Stack;
    pb.arrays = {part};
    q.buffers.push_back(std::move(pb));

    const NodeId init_id = q.freshId();
    const NodeId inner_id = q.freshId();
    const NodeId comb_id = q.freshId();

    // init(k): part[j] = identity
    Node init = Node::scope(init_id, k);
    {
      Access out;
      out.array = part;
      out.idx = {IndexExpr::iter(init_id)};
      init.children.push_back(
          Node::opNode(q.freshId(), OpCode::Mov, std::move(out),
                       {Operand::constant(identity)}));
    }

    // Rewrite the accumulation op: S -> S*k + inner, acc -> part[inner].
    const Access part_acc = [&] {
      Access a;
      a.array = part;
      a.idx = {IndexExpr::iter(inner_id)};
      return a;
    }();
    const IndexExpr remap = IndexExpr::add(
        IndexExpr::mul(IndexExpr::iter(s->id), IndexExpr::constant(k)),
        IndexExpr::iter(inner_id));
    const Access old_acc = op.out;
    {
      // Substitute the loop iterator in every index expression first.
      Node tmp = Node::scope(q.freshId(), 1);
      tmp.children.push_back(std::move(op));
      ir::substituteIter(tmp.children[0], s->id, remap);
      op = std::move(tmp.children[0]);
    }
    op.out = part_acc;
    for (auto& in : op.ins) {
      if (in.kind == Operand::Kind::Array && in.access == old_acc)
        in.access = part_acc;
    }

    // combine(k): acc op= part[j]
    Node comb = Node::scope(comb_id, k);
    {
      Access part_read;
      part_read.array = part;
      part_read.idx = {IndexExpr::iter(comb_id)};
      std::vector<Operand> ins = {Operand::array(old_acc),
                                  Operand::array(std::move(part_read))};
      comb.children.push_back(
          Node::opNode(q.freshId(), combine, old_acc, std::move(ins)));
    }

    // Reassemble: replace S's body with inner(k){op}, shrink extent, and
    // insert init before / combine after S in its parent.
    Node inner = Node::scope(inner_id, k);
    inner.children.push_back(std::move(op));
    s->extent /= k;
    s->children.clear();
    s->children.push_back(std::move(inner));

    Node* parent = ir::findParent(q.root, loc.node);
    const int i = ir::childIndex(*parent, loc.node);
    parent->children.insert(parent->children.begin() + i, std::move(init));
    parent->children.insert(parent->children.begin() + i + 2, std::move(comb));
  }
};

}  // namespace

const Transform& partialReduce() {
  static const PartialReduce t;
  return t;
}

}  // namespace perfdojo::transform
