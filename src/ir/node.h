// The PerfDojo IR tree: ordered scopes (single-dimensional iteration) with
// operation leaves, exactly as described in Section 2.1 of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/index_expr.h"

namespace perfdojo::ir {

/// Annotation suffix on a scope, controlling how its iteration range is
/// instantiated by code generation / the machine models.
///   :u unroll, :p parallelize, :v vectorize,
///   :g/:b/:w GPU grid/block/warp mapping,
///   :s SSR stream (Snitch), :f FREP repetition (Snitch).
enum class LoopAnno : std::uint8_t {
  None,
  Unroll,
  Parallel,
  Vector,
  GpuGrid,
  GpuBlock,
  GpuWarp,
  Ssr,
  Frep,
};

const char* loopAnnoSuffix(LoopAnno a);  // "" for None, ":u", ":p", ...
bool parseLoopAnno(const std::string& suffix, LoopAnno& out);

/// Operation codes. Each op leaf performs a single scalar instruction
/// `out = op(in...)`, keeping transformations atomic and interpretable.
enum class OpCode : std::uint8_t {
  // Unary.
  Mov, Neg, Exp, Log, Sqrt, Rsqrt, Relu, Sigmoid, Tanh, Abs,
  // Binary.
  Add, Sub, Mul, Div, Max, Min,
  // Ternary fused multiply-add: out = a*b + c.
  Fma,
};

int opArity(OpCode op);
const char* opName(OpCode op);
bool parseOpCode(const std::string& s, OpCode& out);
bool opIsFloatingPoint(OpCode op);
/// True for ops usable as reduction combiners (associative + commutative,
/// up to FP rounding): Add, Mul, Max, Min.
bool opIsAssociativeCommutative(OpCode op);

/// A scalar array element reference: array name + one index expression per
/// array dimension.
struct Access {
  std::string array;
  std::vector<IndexExpr> idx;

  bool operator==(const Access& o) const { return array == o.array && idx == o.idx; }
  void collectIters(std::vector<NodeId>& out) const {
    for (const auto& e : idx) e.collectIters(out);
  }
  bool usesIter(NodeId s) const {
    for (const auto& e : idx)
      if (e.usesIter(s)) return true;
    return false;
  }
};

/// An operation input: array element, floating constant, or the current value
/// of an iterator ("index as value" in Table 2).
struct Operand {
  enum class Kind : std::uint8_t { Array, Const, Iter };
  Kind kind = Kind::Const;
  Access access;        // Kind::Array
  double cst = 0.0;     // Kind::Const
  IndexExpr iter_expr;  // Kind::Iter — arbitrary integer expr of iterators

  static Operand array(Access a) {
    Operand o;
    o.kind = Kind::Array;
    o.access = std::move(a);
    return o;
  }
  static Operand constant(double v) {
    Operand o;
    o.kind = Kind::Const;
    o.cst = v;
    return o;
  }
  static Operand iter(IndexExpr e) {
    Operand o;
    o.kind = Kind::Iter;
    o.iter_expr = std::move(e);
    return o;
  }
};

enum class NodeKind : std::uint8_t { Scope, Op };

/// Tree node with value semantics: copying a Program deep-copies scopes and
/// ops, shares index-expression subtrees, and preserves stable NodeIds, so
/// transformation Locations remain valid across the copy that
/// `Transform::apply` performs.
struct Node {
  NodeKind kind = NodeKind::Scope;
  NodeId id = kInvalidNode;

  // --- Scope fields ---
  std::int64_t extent = 1;
  LoopAnno anno = LoopAnno::None;
  std::vector<Node> children;

  // --- Op fields ---
  OpCode op = OpCode::Mov;
  Access out;
  std::vector<Operand> ins;

  bool isScope() const { return kind == NodeKind::Scope; }
  bool isOp() const { return kind == NodeKind::Op; }

  static Node scope(NodeId id, std::int64_t extent, LoopAnno anno = LoopAnno::None);
  static Node opNode(NodeId id, OpCode op, Access out, std::vector<Operand> ins);
};

}  // namespace perfdojo::ir
