#include "ir/printer.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "support/common.h"

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

char opChar(IndexExpr::Kind k) {
  switch (k) {
    case IndexExpr::Kind::Add: return '+';
    case IndexExpr::Kind::Sub: return '-';
    case IndexExpr::Kind::Mul: return '*';
    case IndexExpr::Kind::Div: return '/';
    case IndexExpr::Kind::Mod: return '%';
    default: fail("appendExpr: bad kind");
  }
}

void appendInt(std::string& out, std::int64_t v) {
  // Iterator depths and most index constants are single digits.
  if (v >= 0 && v < 10) {
    out += static_cast<char>('0' + v);
    return;
  }
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void appendExpr(std::string& out, const IndexExpr& e,
                const std::vector<NodeId>& chain);

void appendSide(std::string& out, const IndexExpr& e, bool parens,
                const std::vector<NodeId>& chain) {
  if (parens) out += '(';
  appendExpr(out, e, chain);
  if (parens) out += ')';
}

void appendExpr(std::string& out, const IndexExpr& e,
                const std::vector<NodeId>& chain) {
  switch (e.kind()) {
    case IndexExpr::Kind::Const:
      appendInt(out, e.constValue());
      return;
    case IndexExpr::Kind::Iter:
      out += '{';
      appendInt(out, depthOf(e.iterScope(), chain));
      out += '}';
      return;
    default:
      break;
  }
  const IndexExpr::Kind k = e.kind();
  const int p = precedence(k);
  const int lp = precedence(e.lhs().kind());
  const int rp = precedence(e.rhs().kind());
  // Parenthesize when the child binds more loosely, or equally on the right
  // of a non-commutative operator.
  appendSide(out, e.lhs(), lp < p, chain);
  out += opChar(k);
  appendSide(out, e.rhs(),
             rp < p || (rp == p && k != IndexExpr::Kind::Add &&
                        k != IndexExpr::Kind::Mul),
             chain);
}

void appendConst(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "inf" : "-inf";
    return;
  }
  // Locale-free "%.17g": printed constants feed canonicalText, so a comma-
  // decimal LC_NUMERIC must not change program text or canonical hashes.
  char buf[64];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void appendAccess(std::string& out, const Access& a,
                  const std::vector<NodeId>& chain) {
  out += a.array;
  out += '[';
  for (std::size_t i = 0; i < a.idx.size(); ++i) {
    if (i) out += ',';
    appendExpr(out, a.idx[i], chain);
  }
  out += ']';
}

void appendOperand(std::string& out, const Operand& in,
                   const std::vector<NodeId>& chain) {
  switch (in.kind) {
    case Operand::Kind::Array: return appendAccess(out, in.access, chain);
    case Operand::Kind::Const: return appendConst(out, in.cst);
    case Operand::Kind::Iter: return appendExpr(out, in.iter_expr, chain);
  }
  fail("appendOperand: bad kind");
}

/// Appends join(parts, sep) without building it.
void appendJoined(std::string& out, const std::vector<std::string>& parts,
                  const char* sep) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
}

void appendBufferLine(std::string& out, const Buffer& b) {
  out += "buffer ";
  out += b.name;
  out += ' ';
  out += dtypeName(b.dtype);
  out += " [";
  for (std::size_t i = 0; i < b.shape.size(); ++i) {
    if (i) out += ", ";
    appendInt(out, b.shape[i]);
    if (!b.materialized[i]) out += ":N";
  }
  out += "] ";
  out += memSpaceName(b.space);
  if (b.arrays.size() != 1 || b.arrays[0] != b.name) {
    out += " -> ";
    appendJoined(out, b.arrays, ", ");
  }
  out += '\n';
}

}  // namespace

void appendNodeLine(std::string& out, const Node& n, int depth,
                    const std::vector<NodeId>& chain) {
  for (int i = 0; i < depth; ++i) out.append("| ", 2);
  if (n.isScope()) {
    appendInt(out, n.extent);
    out += loopAnnoSuffix(n.anno);
  } else {
    appendAccess(out, n.out, chain);
    out.append(" = ", 3);
    out += opName(n.op);
    for (const auto& in : n.ins) {
      out += ' ';
      appendOperand(out, in, chain);
    }
  }
  out += '\n';
}

namespace {

/// Appends the lines of the subtree rooted at `n` (pre-order), `n` at
/// `depth` under the enclosing scopes `chain`, which is restored on return.
void appendSubtree(std::string& out, const Node& n, int depth,
                   std::vector<NodeId>& chain) {
  appendNodeLine(out, n, depth, chain);
  if (n.isScope()) {
    chain.push_back(n.id);
    for (const auto& c : n.children) appendSubtree(out, c, depth + 1, chain);
    chain.pop_back();
  }
}

}  // namespace

void appendTree(std::string& out, const Program& p) {
  std::vector<NodeId> chain;
  // The root container is implicit; print its children at depth 0.
  for (const auto& c : p.root.children) appendSubtree(out, c, 0, chain);
}

void appendHeader(std::string& out, const Program& p, bool sort_buffers) {
  std::vector<std::size_t> order;
  appendHeader(out, p, sort_buffers, order);
}

void appendHeader(std::string& out, const Program& p, bool sort_buffers,
                  std::vector<std::size_t>& order) {
  out += "kernel ";
  out += p.name;
  out += '\n';
  if (sort_buffers) {
    // Sort buffer *indices* by name: no Program (or even Buffer) copies.
    order.resize(p.buffers.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return p.buffers[a].name < p.buffers[b].name;
    });
    for (std::size_t i : order) appendBufferLine(out, p.buffers[i]);
  } else {
    for (const auto& b : p.buffers) appendBufferLine(out, b);
  }
  if (!p.inputs.empty()) {
    out += "in ";
    appendJoined(out, p.inputs, " ");
    out += '\n';
  }
  if (!p.outputs.empty()) {
    out += "out ";
    appendJoined(out, p.outputs, " ");
    out += '\n';
  }
  out += '\n';
}

std::string printTree(const Program& p) {
  std::string out;
  appendTree(out, p);
  return out;
}

std::string printProgram(const Program& p) {
  std::string out;
  appendHeader(out, p, /*sort_buffers=*/false);
  appendTree(out, p);
  return out;
}

}  // namespace perfdojo::ir
