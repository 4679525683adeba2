#include "ir/index_expr.h"

#include <algorithm>

#include "support/common.h"

namespace perfdojo::ir {

IndexExpr IndexExpr::constant(std::int64_t v) {
  IndexExpr e;
  e.u_.value = v;
  return e;
}

IndexExpr IndexExpr::iter(NodeId scope) {
  require(scope != kInvalidNode, "IndexExpr::iter: invalid scope id");
  IndexExpr e;
  e.kind_ = Kind::Iter;
  e.u_.iter = scope;
  return e;
}

IndexExpr IndexExpr::binary(Kind k, IndexExpr a, IndexExpr b) {
  require(k > Kind::Iter, "IndexExpr::binary: leaf kind");
  IndexExpr e;
  e.u_.pair = new Pair;
  e.u_.pair->kid[0] = std::move(a);
  e.u_.pair->kid[1] = std::move(b);
  e.kind_ = k;
  return e;
}

IndexExpr IndexExpr::add(IndexExpr a, IndexExpr b) { return binary(Kind::Add, std::move(a), std::move(b)); }
IndexExpr IndexExpr::sub(IndexExpr a, IndexExpr b) { return binary(Kind::Sub, std::move(a), std::move(b)); }
IndexExpr IndexExpr::mul(IndexExpr a, IndexExpr b) { return binary(Kind::Mul, std::move(a), std::move(b)); }
IndexExpr IndexExpr::div(IndexExpr a, IndexExpr b) { return binary(Kind::Div, std::move(a), std::move(b)); }
IndexExpr IndexExpr::mod(IndexExpr a, IndexExpr b) { return binary(Kind::Mod, std::move(a), std::move(b)); }

bool IndexExpr::sameNode(const IndexExpr& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::Const: return u_.value == o.u_.value;
    case Kind::Iter: return u_.iter == o.u_.iter;
    default: return u_.pair == o.u_.pair;
  }
}

void IndexExpr::collectIters(std::vector<NodeId>& out) const {
  if (kind_ == Kind::Iter) {
    if (std::find(out.begin(), out.end(), u_.iter) == out.end()) out.push_back(u_.iter);
    return;
  }
  if (!isBinary()) return;
  u_.pair->kid[0].collectIters(out);
  u_.pair->kid[1].collectIters(out);
}

bool IndexExpr::usesIter(NodeId scope) const {
  if (kind_ == Kind::Iter) return u_.iter == scope;
  if (!isBinary()) return false;
  return u_.pair->kid[0].usesIter(scope) || u_.pair->kid[1].usesIter(scope);
}

IndexExpr IndexExpr::substitute(NodeId from, const IndexExpr& repl) const {
  if (kind_ == Kind::Iter) return u_.iter == from ? repl : *this;
  if (kind_ == Kind::Const) return *this;
  const IndexExpr& l = u_.pair->kid[0];
  const IndexExpr& r = u_.pair->kid[1];
  IndexExpr a = l.substitute(from, repl);
  IndexExpr b = r.substitute(from, repl);
  if (a.sameNode(l) && b.sameNode(r)) return *this;
  return binary(kind_, std::move(a), std::move(b));
}

bool IndexExpr::mayFold() const {
  if (!isBinary()) return false;
  const IndexExpr& l = u_.pair->kid[0];
  const IndexExpr& r = u_.pair->kid[1];
  if (l.mayFold() || r.mayFold()) return true;
  // The kids are their own simplified forms: the rules below are
  // simplifiedFolding's, read on them.
  auto is = [](const IndexExpr& e, std::int64_t v) {
    return e.isConst() && e.u_.value == v;
  };
  if (l.isConst() && r.isConst()) return true;
  switch (kind_) {
    case Kind::Add: return is(l, 0) || is(r, 0);
    case Kind::Sub: return is(r, 0);
    case Kind::Mul: return is(l, 0) || is(l, 1) || is(r, 0) || is(r, 1);
    case Kind::Div: return is(r, 1);
    default: return false;
  }
}

IndexExpr IndexExpr::simplified() const {
  // Most expressions a transform or a legality check simplifies fold
  // nothing; they are returned without copying their subtrees.
  return mayFold() ? simplifiedFolding() : *this;
}

IndexExpr IndexExpr::simplifiedFolding() const {
  if (!isBinary()) return *this;
  const IndexExpr& l = u_.pair->kid[0];
  const IndexExpr& r = u_.pair->kid[1];
  IndexExpr a = l.simplified();
  IndexExpr b = r.simplified();
  if (a.isConst() && b.isConst()) {
    const std::int64_t x = a.u_.value;
    const std::int64_t y = b.u_.value;
    switch (kind_) {
      case Kind::Add: return constant(x + y);
      case Kind::Sub: return constant(x - y);
      case Kind::Mul: return constant(x * y);
      case Kind::Div: return y != 0 ? constant(x / y) : *this;
      case Kind::Mod: return y != 0 ? constant(x % y) : *this;
      default: break;
    }
  }
  if (kind_ == Kind::Add) {
    if (a.isConst() && a.u_.value == 0) return b;
    if (b.isConst() && b.u_.value == 0) return a;
  }
  if (kind_ == Kind::Sub && b.isConst() && b.u_.value == 0) return a;
  if (kind_ == Kind::Mul) {
    if (a.isConst() && a.u_.value == 1) return b;
    if (b.isConst() && b.u_.value == 1) return a;
    if ((a.isConst() && a.u_.value == 0) || (b.isConst() && b.u_.value == 0))
      return constant(0);
  }
  if (kind_ == Kind::Div && b.isConst() && b.u_.value == 1) return a;
  if (a.sameNode(l) && b.sameNode(r)) return *this;
  return binary(kind_, std::move(a), std::move(b));
}

bool IndexExpr::affineCoef(NodeId scope, std::int64_t& coef) const {
  switch (kind_) {
    case Kind::Const:
      return true;
    case Kind::Iter:
      if (u_.iter == scope) coef += 1;
      return true;
    case Kind::Add:
      return u_.pair->kid[0].affineCoef(scope, coef) &&
             u_.pair->kid[1].affineCoef(scope, coef);
    case Kind::Sub: {
      std::int64_t neg = 0;
      if (!u_.pair->kid[0].affineCoef(scope, coef) ||
          !u_.pair->kid[1].affineCoef(scope, neg))
        return false;
      coef -= neg;
      return true;
    }
    case Kind::Mul: {
      // A product is affine when one factor is a constant.
      const IndexExpr* kid = u_.pair->kid;
      const int c = kid[0].isConst() ? 0 : kid[1].isConst() ? 1 : -1;
      if (c < 0) return false;
      std::int64_t sub = 0;
      if (!kid[1 - c].affineCoef(scope, sub)) return false;
      coef += sub * kid[c].u_.value;
      return true;
    }
    case Kind::Div:
    case Kind::Mod:
      return false;
  }
  return false;
}

bool IndexExpr::operator==(const IndexExpr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Const: return u_.value == other.u_.value;
    case Kind::Iter: return u_.iter == other.u_.iter;
    default:
      if (u_.pair == other.u_.pair) return true;
      return u_.pair->kid[0] == other.u_.pair->kid[0] &&
             u_.pair->kid[1] == other.u_.pair->kid[1];
  }
}

}  // namespace perfdojo::ir
