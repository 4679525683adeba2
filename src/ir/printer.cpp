#include "ir/printer.h"

#include <algorithm>
#include <cmath>
#include <charconv>
#include <cstdio>

#include "support/common.h"
#include "support/strings.h"

namespace perfdojo::ir {

namespace {

int depthOf(NodeId scope, const std::vector<NodeId>& chain) {
  for (std::size_t i = 0; i < chain.size(); ++i)
    if (chain[i] == scope) return static_cast<int>(i);
  fail("printProgram: iterator references scope " + std::to_string(scope) +
       " that is not an ancestor of the operation");
}

// Precedence: Add/Sub = 1, Mul/Div/Mod = 2, leaves = 3.
int precedence(IndexExpr::Kind k) {
  switch (k) {
    case IndexExpr::Kind::Add:
    case IndexExpr::Kind::Sub:
      return 1;
    case IndexExpr::Kind::Mul:
    case IndexExpr::Kind::Div:
    case IndexExpr::Kind::Mod:
      return 2;
    default:
      return 3;
  }
}

std::string exprStr(const IndexExpr& e, const std::vector<NodeId>& chain) {
  switch (e.kind()) {
    case IndexExpr::Kind::Const:
      return std::to_string(e.constValue());
    case IndexExpr::Kind::Iter:
      return "{" + std::to_string(depthOf(e.iterScope(), chain)) + "}";
    default:
      break;
  }
  const char* op = nullptr;
  switch (e.kind()) {
    case IndexExpr::Kind::Add: op = "+"; break;
    case IndexExpr::Kind::Sub: op = "-"; break;
    case IndexExpr::Kind::Mul: op = "*"; break;
    case IndexExpr::Kind::Div: op = "/"; break;
    case IndexExpr::Kind::Mod: op = "%"; break;
    default: fail("exprStr: bad kind");
  }
  const int p = precedence(e.kind());
  auto side = [&](const IndexExpr& k, bool right) {
    std::string s = exprStr(k, chain);
    const int kp = precedence(k.kind());
    // Parenthesize when the child binds more loosely, or equally on the
    // right of a non-commutative operator.
    const bool need = kp < p || (kp == p && right &&
                                 e.kind() != IndexExpr::Kind::Add &&
                                 e.kind() != IndexExpr::Kind::Mul);
    return need ? "(" + s + ")" : s;
  };
  return side(e.lhs(), false) + op + side(e.rhs(), true);
}

std::string constStr(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // Locale-free "%.17g": printed constants feed canonicalText, so a comma-
  // decimal LC_NUMERIC must not change program text or canonical hashes.
  char buf[64];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  return std::string(buf, r.ptr);
}

std::string accessStr(const Access& a, const std::vector<NodeId>& chain) {
  std::string s = a.array + "[";
  for (std::size_t i = 0; i < a.idx.size(); ++i) {
    if (i) s += ",";
    s += exprStr(a.idx[i], chain);
  }
  return s + "]";
}

std::string operandStr(const Operand& in, const std::vector<NodeId>& chain) {
  switch (in.kind) {
    case Operand::Kind::Array: return accessStr(in.access, chain);
    case Operand::Kind::Const: return constStr(in.cst);
    case Operand::Kind::Iter: return exprStr(in.iter_expr, chain);
  }
  fail("operandStr: bad kind");
}

void printNode(const Node& n, int depth, std::vector<NodeId>& chain,
               std::string& out) {
  out += printNodeLine(n, depth, chain);
  if (n.isScope()) {
    chain.push_back(n.id);
    for (const auto& c : n.children) printNode(c, depth + 1, chain, out);
    chain.pop_back();
  }
}

}  // namespace

std::string printNodeLine(const Node& n, int depth,
                          const std::vector<NodeId>& chain) {
  std::string prefix;
  for (int i = 0; i < depth; ++i) prefix += "| ";
  if (n.isScope())
    return prefix + std::to_string(n.extent) + loopAnnoSuffix(n.anno) + "\n";
  std::string out = prefix + accessStr(n.out, chain) + " = " + opName(n.op);
  for (const auto& in : n.ins) out += " " + operandStr(in, chain);
  return out + "\n";
}

std::string printTree(const Program& p) {
  std::string out;
  std::vector<NodeId> chain;
  // The root container is implicit; print its children at depth 0.
  for (const auto& c : p.root.children) printNode(c, 0, chain, out);
  return out;
}

std::string printBufferLine(const Buffer& b) {
  std::string out = "buffer " + b.name + " " + dtypeName(b.dtype) + " [";
  for (std::size_t i = 0; i < b.shape.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(b.shape[i]);
    if (!b.materialized[i]) out += ":N";
  }
  out += "] " + std::string(memSpaceName(b.space));
  if (b.arrays.size() != 1 || b.arrays[0] != b.name) {
    out += " -> " + join(b.arrays, ", ");
  }
  return out + "\n";
}

std::string printProgram(const Program& p) {
  std::string out = "kernel " + p.name + "\n";
  for (const auto& b : p.buffers) out += printBufferLine(b);
  if (!p.inputs.empty()) out += "in " + join(p.inputs, " ") + "\n";
  if (!p.outputs.empty()) out += "out " + join(p.outputs, " ") + "\n";
  out += "\n";
  out += printTree(p);
  return out;
}

}  // namespace perfdojo::ir
