// Incrementally-maintained applicable-action index: the accepted-move side
// of the hot path. Neighbor *pricing* is O(dirty subtree); what would keep
// accepted moves O(program) is re-running transform::allActions — 20
// transforms × full-tree findApplicable walks — after every acceptance.
//
// ActionSet keeps one location list per transform and, after an accepted
// action, consumes the transform's ir::MutationSummary to re-enumerate only
// what the mutation can have touched:
//
//   * a per-transform locality policy (the classification table in
//     action_set.cpp, with the soundness argument per transform) maps the
//     summary's dirty roots to splice roots — the subtrees whose sites must
//     be re-enumerated via the scoped findApplicable overload — plus a small
//     recheck set of single nodes (ancestors, preceding siblings) whose
//     applicability can flip when a *descendant or sibling* subtree changes,
//     re-enumerated via findApplicableAt;
//   * transforms whose predicates read the buffer header re-enumerate fully
//     when buffers_changed; header-only transforms are untouched by tree
//     dirt entirely; transforms with program-wide predicates (reuse_dims)
//     and unknown transform names (the fuzzer's injected ones) re-enumerate
//     fully on every update;
//   * conservative summaries (whole_tree, unknown ids, the root container
//     as a dirty root) fall back to a full rebuild.
//
// Every enumeration of one state — the full rebuild, or each transform's
// splices and rechecks — reads the one ir::ProgramIndex that bind()/update()
// builds for that state, so the ~20 transforms share one analysis instead
// of each walking the tree. The index lives only for the call that built
// it; between calls the set keeps only the pointer-free, id-keyed
// ir::ProgramIndex::Shape of the last state. A copied set therefore holds no
// pointer into any program and can be updated against a different Program
// object (the exact tier copies one kernel-bound set into every worker).
//
// Retained and fresh entries are stable-merged by the owning node's
// post-mutation pre-order position, so the maintained list satisfies the
// non-negotiable invariant the search tiers key on:
//
//   actions() is element-identical — same elements, same order — to a fresh
//   transform::allActions(p, caps) after every bind()/update().
//
// Decision sequences, traces and optimality certificates are therefore
// exactly those a fresh enumeration per state would give; the property suite
// and the fuzzer's action-set oracle layer enforce it element-for-element.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "ir/program_index.h"
#include "transform/transform.h"

namespace perfdojo::ir {
struct MutationSummary;
}

namespace perfdojo::transform {

struct ActionSetStats {
  std::int64_t binds = 0;
  std::int64_t updates = 0;
  /// Updates that degraded to a full rebuild (conservative summary, unknown
  /// or root-container dirty ids).
  std::int64_t full_rebuilds = 0;
  /// Per-transform full re-enumerations inside incremental updates
  /// (buffers_changed dependents, program-wide predicates, root-reaching
  /// splice roots).
  std::int64_t transform_full_enums = 0;
  /// Per-transform spliced (subtree-scoped) re-enumerations.
  std::int64_t transform_splices = 0;
  /// Single nodes re-checked through findApplicableAt.
  std::int64_t nodes_rechecked = 0;
};

class ActionSet {
 public:
  ActionSet() = default;

  /// Full enumeration of `p` against the standard transform library.
  void bind(const ir::Program& p, const MachineCaps& caps);
  /// Same, drawing from an explicit transform list (the fuzzer's injection
  /// point; unknown names get the always-full policy).
  void bind(const ir::Program& p, const MachineCaps& caps,
            const std::vector<const Transform*>& transforms);

  bool bound() const { return bound_; }

  /// Brings the index in sync with `p` — the program the bound one was
  /// mutated INTO by one accepted action — using the mutation's summary.
  /// O(dirty subtree + recheck spine) for adequately-reported mutations;
  /// falls back to a full rebuild on conservative summaries.
  void update(const ir::Program& p, const ir::MutationSummary& mut);

  /// The maintained list: element-identical to allActions(p, caps) for the
  /// last program passed to bind()/update(). Invalidated by both.
  const std::vector<Action>& actions() const { return actions_; }

  /// Verifies the invariant against a fresh enumeration; on mismatch returns
  /// false and describes the first divergence (test / oracle aid).
  bool selfCheck(const ir::Program& p, std::string* detail = nullptr) const;

  const ActionSetStats& stats() const { return stats_; }

 private:
  /// How one transform's applicable sites react to a reported mutation; the
  /// classification table and its soundness argument are in action_set.cpp.
  struct Policy {
    bool always_full = false;
    bool header_only = false;
    bool buffers_full = false;
    bool widen_to_parent = false;
    bool recheck_ancestors = false;
    bool recheck_prev_siblings = false;
    /// reorder_ops sites are owned by the parent whose child list they
    /// permute (loc.node is the left child); splice membership, recheck and
    /// merge keys all use that owner.
    bool owner_is_parent = false;
  };
  static Policy policyFor(const std::string& name);

  void rebuildAll(const ir::ProgramIndex& ix);
  void rebuildActions();
  void updateTransform(std::size_t ti, const ir::ProgramIndex& next,
                       const ir::MutationSummary& mut);

  std::vector<const Transform*> transforms_;
  std::vector<Policy> policies_;             // parallel to transforms_
  MachineCaps caps_;
  std::vector<std::vector<Location>> locs_;  // parallel to transforms_
  std::vector<Action> actions_;              // concatenation cache
  /// Id-keyed structure of the indexed program: what update() needs of the
  /// previous state. Pointer-free, so copies of the set stay valid.
  ir::ProgramIndex::Shape shape_;
  ActionSetStats stats_;
  bool bound_ = false;
};

}  // namespace perfdojo::transform
