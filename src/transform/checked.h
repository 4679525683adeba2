// Internal scaffolding for transformation implementations: apply() always
// revalidates through isApplicable(), so stale or forged Locations can never
// yield a semantically different program.
//
// Mutation reporting: while applyChecked runs, a thread-local capture (set up
// by applyInPlace) collects what the transform declares about its footprint —
// reportDirtySubtree() / reportBuffersChanged() / reportWholeTree(). A
// transform that reports nothing gets a conservative whole-program summary,
// which is always correct (the incremental hasher then re-renders
// everything). The reporting contract is in ir::MutationSummary; the
// property tests and the fuzzer's incremental-hash oracle layer enforce that
// every report is adequate.
#pragma once

#include "ir/incremental.h"
#include "ir/program.h"
#include "ir/program_index.h"
#include "ir/walk.h"
#include "support/common.h"
#include "transform/transform.h"

namespace perfdojo::transform {

namespace detail {

struct ReportCapture {
  ir::MutationSummary* out = nullptr;
  bool any = false;  // did the transform report at all?
};

// Thread-local because transforms are shared singletons called concurrently
// from ParallelEvaluator workers.
inline thread_local ReportCapture* tl_report = nullptr;

/// RAII frame installing a capture target for the duration of one
/// applyChecked call. A null `out` (plain apply path) leaves the helpers as
/// no-ops. If the transform never reported, the summary falls back to
/// conservative on scope exit.
class ReportScope {
 public:
  explicit ReportScope(ir::MutationSummary* out) {
    if (!out) return;
    *out = ir::MutationSummary::none();
    cap_.out = out;
    prev_ = tl_report;
    tl_report = &cap_;
  }
  ~ReportScope() {
    if (!cap_.out) return;
    if (!cap_.any) *cap_.out = ir::MutationSummary::conservative();
    tl_report = prev_;
  }
  ReportScope(const ReportScope&) = delete;
  ReportScope& operator=(const ReportScope&) = delete;

 private:
  ReportCapture cap_;
  ReportCapture* prev_ = nullptr;
};

}  // namespace detail

/// Declares that every canonical-text change of this mutation lies inside
/// the subtree rooted at `id` (which must exist, with an unchanged ancestor
/// chain, both before and after the mutation). A summary holds one root: a
/// second, different root degrades it to whole-tree, which is always correct.
inline void reportDirtySubtree(ir::NodeId id) {
  if (detail::ReportCapture* r = detail::tl_report) {
    r->any = true;
    ir::MutationSummary& m = *r->out;
    if (m.dirty == ir::kInvalidNode)
      m.dirty = id;
    else if (m.dirty != id)
      m.whole_tree = true;
  }
}

/// Declares that the program header (buffer declarations) changed; the tree
/// dirt, if any, is still reported via reportDirtySubtree.
inline void reportBuffersChanged() {
  if (detail::ReportCapture* r = detail::tl_report) {
    r->any = true;
    r->out->buffers_changed = true;
  }
}

/// Explicit conservative report for transforms that rewrite accesses across
/// the whole tree (e.g. reorder_dims).
inline void reportWholeTree() {
  if (detail::ReportCapture* r = detail::tl_report) {
    r->any = true;
    r->out->whole_tree = true;
    r->out->buffers_changed = true;
  }
}

class CheckedTransform : public Transform {
 public:
  ir::Program apply(const ir::Program& p, const Location& loc) const final {
    ir::Program q = p;
    applyInPlace(q, loc, nullptr, /*validate=*/true);
    return q;
  }

  void applyInPlace(ir::Program& q, const Location& loc,
                    ir::MutationSummary* mut,
                    bool validate = true) const final {
    if (!isApplicable(q, loc))
      fail(name() + ": location not applicable to this program");
    detail::ReportScope scope(mut);
    applyChecked(q, loc);
    if (validate) q.validate();
  }

  /// Semantic + structural legality of applying at `loc` (capability gating,
  /// e.g. vector widths, happens only in findApplicable enumeration).
  virtual bool isApplicable(const ir::Program& p, const Location& loc) const = 0;

 protected:
  virtual void applyChecked(ir::Program& q, const Location& loc) const = 0;
};

/// The scope site `loc` names in `p` — a scope other than the root
/// container — or nullptr.
inline const ir::Node* scopeSite(const ir::Program& p, const Location& loc) {
  const ir::Node* s = ir::findNode(p.root, loc.node);
  return s != nullptr && s->isScope() && s->id != p.root.id ? s : nullptr;
}

/// Transforms whose sites are scopes (the location is the scope plus
/// parameters). Each one enumerates by the same pre-order walk over the
/// index's scopes, written once here as scopeSites; a subclass's
/// findApplicable first computes what depends on the caps alone (a factor
/// list, a gate), once per call, and then says which locations one scope
/// offers.
class ScopeSiteTransform : public CheckedTransform {
 protected:
  /// The locations `emit(s, out)` appends at each scope site `s` of the
  /// indexed state, pre-order.
  template <typename Emit>
  static std::vector<Location> scopeSites(const ir::ProgramIndex& ix,
                                          Emit&& emit) {
    std::vector<Location> out;
    ix.forEachScope(ix.rootId(), [&](const ir::Node& s) { emit(s, out); });
    return out;
  }

  static Location at(ir::NodeId node, std::int64_t param = 0) {
    Location loc;
    loc.node = node;
    loc.param = param;
    return loc;
  }
};

}  // namespace perfdojo::transform
