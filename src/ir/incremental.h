// What a transform reports about an in-place mutation, so that maintained
// per-program state — the canonical form (ir::CanonicalArena), the
// applicable-action index (transform::ActionSet) and the delta pricing
// context (search::DeltaContext) — can be brought up to date by touching
// only the subtrees that changed.
#pragma once

#include <vector>

#include "ir/program.h"

namespace perfdojo::ir {

/// What a transform reports about the mutation it performed, consumed by
/// CanonicalArena::probe/rebase and ActionSet::update. Default-constructed it
/// claims everything changed — always safe, never fast.
///
/// Contract for a non-conservative summary: every reported dirty id must
/// name a node that exists in BOTH the pre- and post-mutation program with
/// an unchanged enclosing-scope chain (same ancestors, same depth), and the
/// union of the reported subtrees (in the post program) must contain every
/// node whose canonical line changed. Nodes created or destroyed by the
/// mutation must lie inside a reported subtree. If buffers (or the program
/// header in any way) changed, buffers_changed must be set.
struct MutationSummary {
  bool whole_tree = true;
  bool buffers_changed = true;
  /// Roots of the dirty subtrees (meaningful only when !whole_tree).
  std::vector<NodeId> dirty_scopes;

  static MutationSummary conservative() { return MutationSummary{}; }
  static MutationSummary none() {
    MutationSummary m;
    m.whole_tree = false;
    m.buffers_changed = false;
    return m;
  }
};

}  // namespace perfdojo::ir
