// Loop-structure transformations: split (tiling), collapse, interchange,
// fusion (join_scopes), fission, and sibling reordering.
#include <algorithm>

#include "ir/walk.h"
#include "support/common.h"
#include "transform/checked.h"
#include "transform/deps.h"
#include "transform/transform.h"

namespace perfdojo::transform {

using ir::IndexExpr;
using ir::LoopAnno;
using ir::Node;
using ir::NodeId;
using ir::Program;

namespace {

void substituteInChildren(std::vector<Node>& children, NodeId from,
                          const IndexExpr& repl) {
  for (auto& c : children) ir::substituteIter(c, from, repl);
}

// ---------------------------------------------------------------------------

class SplitScope final : public ScopeSiteTransform {
 public:
  std::string name() const override { return "split_scope"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc);
    return s != nullptr && splits(*s, loc.param);
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps& caps) const override {
    // The candidate factors, ascending and distinct, depend on the caps
    // alone.
    std::vector<std::int64_t> factors = caps.split_factors;
    factors.insert(factors.end(), caps.vector_widths.begin(),
                   caps.vector_widths.end());
    if (caps.is_gpu) factors.push_back(caps.warp_size);
    std::sort(factors.begin(), factors.end());
    factors.erase(std::unique(factors.begin(), factors.end()), factors.end());
    return scopeSites(ix, [&](const Node& s, std::vector<Location>& out) {
      if (s.anno != LoopAnno::None) return;
      for (std::int64_t f : factors) {
        if (f >= s.extent) break;  // so does every later factor
        if (splits(s, f)) out.push_back(at(s.id, f));
      }
    });
  }

 private:
  static bool splits(const Node& s, std::int64_t f) {
    return s.anno == LoopAnno::None && f >= 2 && f < s.extent &&
           s.extent % f == 0;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    Node* s = ir::findNode(q.root, loc.node);
    // `s` keeps its id and stays in place: all text changes are inside it.
    reportDirtySubtree(s->id);
    const std::int64_t f = loc.param;
    const NodeId inner_id = q.freshId();
    // iter(s) -> iter(s) * f + iter(inner); the node `s` keeps its id and
    // becomes the outer loop of extent N/f.
    const IndexExpr repl = IndexExpr::add(
        IndexExpr::mul(IndexExpr::iter(s->id), IndexExpr::constant(f)),
        IndexExpr::iter(inner_id));
    substituteInChildren(s->children, s->id, repl);
    Node inner = Node::scope(inner_id, f);
    inner.children = std::move(s->children);
    s->children.clear();
    s->children.push_back(std::move(inner));
    s->extent /= f;
  }
};

// ---------------------------------------------------------------------------

/// An unannotated scope whose only child is an unannotated scope: the nest
/// collapse_scopes merges and interchange_scopes swaps.
bool plainNest(const Node& s) {
  return s.anno == LoopAnno::None && s.children.size() == 1 &&
         s.children[0].isScope() && s.children[0].anno == LoopAnno::None;
}

class CollapseScopes final : public ScopeSiteTransform {
 public:
  std::string name() const override { return "collapse_scopes"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc);
    return s != nullptr && plainNest(*s);
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    return scopeSites(ix, [&](const Node& s, std::vector<Location>& out) {
      if (plainNest(s)) out.push_back(at(s.id));
    });
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // The collapsed scope changes its own id, so the stable dirty root is
    // its parent (the root container when collapsing a top-level nest).
    reportDirtySubtree(ir::findParent(q.root, loc.node)->id);
    Node* outer = ir::findNode(q.root, loc.node);
    Node inner = std::move(outer->children[0]);
    const std::int64_t ni = inner.extent;
    const NodeId merged_id = q.freshId();
    // iter(outer) -> merged / ni ; iter(inner) -> merged % ni.
    substituteInChildren(
        inner.children, outer->id,
        IndexExpr::div(IndexExpr::iter(merged_id), IndexExpr::constant(ni)));
    substituteInChildren(
        inner.children, inner.id,
        IndexExpr::mod(IndexExpr::iter(merged_id), IndexExpr::constant(ni)));
    outer->extent *= ni;
    outer->id = merged_id;
    outer->children = std::move(inner.children);
  }
};

// ---------------------------------------------------------------------------

class InterchangeScopes final : public ScopeSiteTransform {
 public:
  std::string name() const override { return "interchange_scopes"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const ir::ProgramIndex ix(p);
    const Node* s = ix.scope(loc.node);
    return s != nullptr && legal(ix, *s);
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    return scopeSites(ix, [&](const Node& s, std::vector<Location>& out) {
      if (legal(ix, s)) out.push_back(at(s.id));
    });
  }

 private:
  static bool legal(const ir::ProgramIndex& ix, const Node& outer) {
    if (!plainNest(outer)) return false;
    const Node& inner = outer.children[0];
    return interchangeLegal(ix.ops(inner.id), outer.id, inner.id);
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // Both nests swap ids, so neither is a stable dirty root; the parent is.
    reportDirtySubtree(ir::findParent(q.root, loc.node)->id);
    Node* outer = ir::findNode(q.root, loc.node);
    Node& inner = outer->children[0];
    // Swapping (id, extent, anno) between the two nests swaps the loops:
    // iterator references bind to ids, so the body is untouched.
    std::swap(outer->id, inner.id);
    std::swap(outer->extent, inner.extent);
    std::swap(outer->anno, inner.anno);
  }
};

// ---------------------------------------------------------------------------

class JoinScopes final : public ScopeSiteTransform {
 public:
  std::string name() const override { return "join_scopes"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const ir::ProgramIndex ix(p);
    const Node* s = ix.scope(loc.node);
    return s != nullptr && legal(ix, *s);
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    return scopeSites(ix, [&](const Node& s, std::vector<Location>& out) {
      if (legal(ix, s)) out.push_back(at(s.id));
    });
  }

 private:
  /// Scope `s` fuses with its next sibling.
  static bool legal(const ir::ProgramIndex& ix, const Node& s) {
    const Node* parent = ix.parent(s.id);
    const auto next = static_cast<std::size_t>(ix.childIndex(s.id)) + 1;
    if (next >= parent->children.size()) return false;
    const Node& t = parent->children[next];
    if (!t.isScope() || s.extent != t.extent) return false;
    if (s.anno != LoopAnno::None || t.anno != LoopAnno::None) return false;
    return fusionLegal(ix.ops(s.id), s.id, ix.ops(t.id), t.id);
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    Node* parent = ir::findParent(q.root, loc.node);
    // The fused sibling disappears from the parent's child list.
    reportDirtySubtree(parent->id);
    const int i = ir::childIndex(*parent, loc.node);
    Node& s = parent->children[static_cast<std::size_t>(i)];
    Node t = std::move(parent->children[static_cast<std::size_t>(i) + 1]);
    parent->children.erase(parent->children.begin() + i + 1);
    substituteInChildren(t.children, t.id, IndexExpr::iter(s.id));
    for (auto& c : t.children) s.children.push_back(std::move(c));
  }
};

// ---------------------------------------------------------------------------

class FissionScope final : public ScopeSiteTransform {
 public:
  std::string name() const override { return "fission_scope"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const ir::ProgramIndex ix(p);
    const Node* s = ix.scope(loc.node);
    return s != nullptr && legal(ix, *s, loc.param);
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    return scopeSites(ix, [&](const Node& s, std::vector<Location>& out) {
      for (std::size_t cut = 1; cut < s.children.size(); ++cut)
        if (legal(ix, s, static_cast<std::int64_t>(cut)))
          out.push_back(at(s.id, static_cast<std::int64_t>(cut)));
    });
  }

 private:
  /// Scope `s` splits into children [0, cut) and [cut, end).
  static bool legal(const ir::ProgramIndex& ix, const Node& s, std::int64_t cut) {
    if (s.anno != LoopAnno::None) return false;
    if (cut < 1 || cut >= static_cast<std::int64_t>(s.children.size()))
      return false;
    const auto c = static_cast<std::size_t>(cut);
    // Fission is legal iff the two halves could be legally fused back.
    return fusionLegal(ix.ops(s, 0, c), s.id, ix.ops(s, c, s.children.size()),
                       s.id);
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // A new sibling scope appears next to `s` in the parent's child list.
    reportDirtySubtree(ir::findParent(q.root, loc.node)->id);
    Node* s = ir::findNode(q.root, loc.node);
    const auto cut = static_cast<std::size_t>(loc.param);
    Node t = Node::scope(q.freshId(), s->extent);
    t.children.assign(std::make_move_iterator(s->children.begin() + static_cast<std::ptrdiff_t>(cut)),
                      std::make_move_iterator(s->children.end()));
    s->children.resize(cut);
    substituteInChildren(t.children, s->id, IndexExpr::iter(t.id));
    Node* parent = ir::findParent(q.root, loc.node);
    const int i = ir::childIndex(*parent, loc.node);
    parent->children.insert(parent->children.begin() + i + 1, std::move(t));
  }
};

// ---------------------------------------------------------------------------

class ReorderOps final : public CheckedTransform {
 public:
  std::string name() const override { return "reorder_ops"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const ir::ProgramIndex ix(p);
    const Node* parent = ix.parent(loc.node);
    return parent != nullptr &&
           legal(ix, *parent, static_cast<std::size_t>(ix.childIndex(loc.node)));
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    std::vector<Location> out;
    for (const Node* parent : ix.subtree(ix.rootId())) emitAt(ix, *parent, out);
    return out;
  }

 private:
  /// Children i and i+1 of `parent` swap: entire subtrees must be
  /// independent, no write of one aliasing any access of the other.
  static bool legal(const ir::ProgramIndex& ix, const Node& parent,
                    std::size_t i) {
    if (i + 1 >= parent.children.size()) return false;
    return opsSwappable(ix.ops(parent.children[i].id),
                        ix.ops(parent.children[i + 1].id));
  }

  static void emitAt(const ir::ProgramIndex& ix, const Node& parent,
                     std::vector<Location>& out) {
    if (!parent.isScope()) return;
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      if (!legal(ix, parent, i)) continue;
      Location loc;
      loc.node = parent.children[i].id;
      out.push_back(loc);
    }
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    Node* parent = ir::findParent(q.root, loc.node);
    reportDirtySubtree(parent->id);
    const int i = ir::childIndex(*parent, loc.node);
    std::swap(parent->children[static_cast<std::size_t>(i)],
              parent->children[static_cast<std::size_t>(i) + 1]);
  }
};

}  // namespace

const Transform& splitScope() {
  static const SplitScope t;
  return t;
}
const Transform& collapseScopes() {
  static const CollapseScopes t;
  return t;
}
const Transform& interchangeScopes() {
  static const InterchangeScopes t;
  return t;
}
const Transform& joinScopes() {
  static const JoinScopes t;
  return t;
}
const Transform& fissionScope() {
  static const FissionScope t;
  return t;
}
const Transform& reorderOps() {
  static const ReorderOps t;
  return t;
}

}  // namespace perfdojo::transform
