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

IndexExpr IndexExpr::simplified() const {
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

bool IndexExpr::asAffine(std::vector<AffineTerm>& terms, std::int64_t& offset) const {
  switch (kind_) {
    case Kind::Const:
      offset += u_.value;
      return true;
    case Kind::Iter: {
      for (auto& t : terms) {
        if (t.scope == u_.iter) {
          t.coef += 1;
          return true;
        }
      }
      terms.push_back({u_.iter, 1});
      return true;
    }
    case Kind::Add:
      return u_.pair->kid[0].asAffine(terms, offset) && u_.pair->kid[1].asAffine(terms, offset);
    case Kind::Sub: {
      if (!u_.pair->kid[0].asAffine(terms, offset)) return false;
      std::vector<AffineTerm> neg;
      std::int64_t noff = 0;
      if (!u_.pair->kid[1].asAffine(neg, noff)) return false;
      offset -= noff;
      for (const auto& t : neg) {
        bool found = false;
        for (auto& u : terms) {
          if (u.scope == t.scope) {
            u.coef -= t.coef;
            found = true;
            break;
          }
        }
        if (!found) terms.push_back({t.scope, -t.coef});
      }
      return true;
    }
    case Kind::Mul: {
      const IndexExpr* c = nullptr;
      const IndexExpr* other = nullptr;
      const IndexExpr* kid = u_.pair->kid;
      if (kid[0].isConst()) { c = &kid[0]; other = &kid[1]; }
      else if (kid[1].isConst()) { c = &kid[1]; other = &kid[0]; }
      else return false;
      std::vector<AffineTerm> sub;
      std::int64_t soff = 0;
      if (!other->asAffine(sub, soff)) return false;
      offset += soff * c->u_.value;
      for (const auto& t : sub) {
        bool found = false;
        for (auto& u : terms) {
          if (u.scope == t.scope) {
            u.coef += t.coef * c->u_.value;
            found = true;
            break;
          }
        }
        if (!found) terms.push_back({t.scope, t.coef * c->u_.value});
      }
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
