#include "transform/deps.h"

#include "ir/walk.h"
#include "support/common.h"

namespace perfdojo::transform {

using ir::Access;
using ir::Buffer;
using ir::IndexExpr;
using ir::Node;
using ir::NodeId;

std::vector<OpInfo> collectOpInfos(const ir::Program& p, const Node& root) {
  std::vector<OpInfo> out;
  for (const Node* op : ir::collectOps(root)) out.push_back(ir::opInfo(p, *op));
  return out;
}

namespace {

/// True when expr is affine with a non-zero coefficient on `iter` — the
/// injectivity witness used to prove distinct iterations touch distinct
/// elements.
bool affineNonzeroIn(const IndexExpr& e, NodeId iter) {
  std::int64_t coef = 0;
  return e.affineCoef(iter, coef) && coef != 0;
}

}  // namespace

bool mayAlias(const AccessRef& a, const AccessRef& b) {
  require(a.buffer && b.buffer, "mayAlias: unknown array");
  if (a.buffer != b.buffer) return false;
  if (a.access->array != b.access->array) return true;  // shared storage
  const Buffer* buf = a.buffer;
  for (std::size_t d = 0; d < buf->materialized.size(); ++d) {
    if (!buf->materialized[d]) continue;
    const IndexExpr& ea = a.access->idx[d];
    const IndexExpr& eb = b.access->idx[d];
    if (ea.isConst() && eb.isConst() && ea.constValue() != eb.constValue())
      return false;  // provably distinct elements
  }
  return true;
}

bool sameElementUnderIterMap(const AccessRef& a, NodeId iter_a,
                             const AccessRef& b, NodeId iter_b) {
  if (a.access->array != b.access->array) return false;
  const Buffer* ba = a.buffer;
  if (ba == nullptr) fail("deps: unknown array '" + a.access->array + "'");
  bool uses_iter_injectively = false;
  for (std::size_t d = 0; d < ba->materialized.size(); ++d) {
    if (!ba->materialized[d]) continue;
    const IndexExpr& ea = a.access->idx[d];
    // Fission compares its two halves under one iterator, where the
    // substitution is the identity; b's expression is still simplified.
    const IndexExpr& b_idx = b.access->idx[d];
    const IndexExpr eb =
        iter_a == iter_b
            ? b_idx.simplified()
            : b_idx.substitute(iter_b, IndexExpr::iter(iter_a)).simplified();
    if (!(ea == eb)) return false;
    if (affineNonzeroIn(ea, iter_a)) uses_iter_injectively = true;
  }
  // Agreement on every materialized dim AND per-iteration distinctness:
  // without the injectivity witness the dependency spans iterations (e.g. a
  // scalar accumulator finalized only after the whole loop), which fusion
  // would break.
  return uses_iter_injectively;
}

bool fusionLegal(std::span<const OpInfo> ops_a, NodeId iter_a,
                 std::span<const OpInfo> ops_b, NodeId iter_b) {
  auto crossOk = [&](const AccessRef& wa, NodeId wi, const AccessRef& ab,
                     NodeId bi) {
    if (!mayAlias(wa, ab)) return true;
    return sameElementUnderIterMap(wa, wi, ab, bi);
  };
  for (const auto& oa : ops_a) {
    for (const auto& ob : ops_b) {
      // write(A) vs read(B)
      for (const auto& rb : ob.reads())
        if (!crossOk(oa.write, iter_a, rb, iter_b)) return false;
      // read(A) vs write(B)
      for (const auto& ra : oa.reads())
        if (!crossOk(ob.write, iter_b, ra, iter_a)) return false;
      // write vs write
      if (!crossOk(oa.write, iter_a, ob.write, iter_b)) return false;
    }
  }
  return true;
}

bool opsSwappable(std::span<const OpInfo> ops_a, std::span<const OpInfo> ops_b) {
  for (const auto& oa : ops_a) {
    for (const auto& ob : ops_b) {
      if (mayAlias(oa.write, ob.write)) return false;
      for (const auto& r : ob.reads())
        if (mayAlias(oa.write, r)) return false;
      for (const auto& r : oa.reads())
        if (mayAlias(ob.write, r)) return false;
    }
  }
  return true;
}

bool interchangeLegal(std::span<const OpInfo> ops, NodeId outer, NodeId inner) {
  // Group accesses per written array and apply the per-write rule.
  for (const auto& w : ops) {
    const Access& wa = *w.write.access;
    // Every aliasing read must match the write exactly (distance 0).
    auto readsMatch = [&] {
      for (const auto& o : ops)
        for (const auto& r : o.reads())
          if (mayAlias(w.write, r) && !(*r.access == wa)) return false;
      return true;
    };
    if (wa.usesIter(outer) && wa.usesIter(inner)) {
      if (!readsMatch()) return false;
    } else {
      // Reduction over one (or both) of the swapped loops: only legal for
      // associative+commutative accumulation, and the only aliasing reads
      // must be the accumulation's own operand.
      if (!w.is_accumulation) return false;
      if (!readsMatch()) return false;
      // Aliasing writes from other ops would interleave differently.
      for (const auto& o : ops) {
        if (o.op == w.op) continue;
        if (mayAlias(w.write, o.write) && !(*o.write.access == wa)) return false;
      }
    }
  }
  return true;
}

bool iterationsIndependent(std::span<const OpInfo> ops, NodeId scope) {
  // Per written buffer: collect all accesses to it within the subtree.
  for (const auto& w : ops) {
    const Access& wa = *w.write.access;
    const Buffer* wb = w.write.buffer;
    if (wb == nullptr) fail("deps: unknown array '" + wa.array + "'");
    // The materialized dimensions in which the write uses the scope
    // iterator: at least one must, injectively.
    bool injective = false;
    for (std::size_t d = 0; d < wb->materialized.size() && !injective; ++d)
      injective = wb->materialized[d] && affineNonzeroIn(wa.idx[d], scope);
    if (!injective) return false;  // reduction over scope
    // Every access (read or write) in the subtree that may alias this write
    // must agree with it syntactically on those dimensions.
    auto agree = [&](const AccessRef& a) {
      if (a.buffer != wb) return true;                 // different storage
      if (a.access->array != wa.array) return false;  // shared-buffer alias
      for (std::size_t d = 0; d < wb->materialized.size(); ++d)
        if (wb->materialized[d] && !(a.access->idx[d] == wa.idx[d]) &&
            wa.idx[d].usesIter(scope))
          return false;
      return true;
    };
    for (const auto& o : ops) {
      if (!agree(o.write)) return false;
      for (const auto& r : o.reads())
        if (!agree(r)) return false;
    }
  }
  return true;
}

}  // namespace perfdojo::transform
