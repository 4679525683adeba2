// What a transform reports about an in-place mutation, so that maintained
// per-program state — the canonical form (ir::CanonicalArena) and the delta
// pricing context built on it (search::DeltaContext) — can be brought up to
// date by touching only the one subtree that changed.
#pragma once

#include "ir/program.h"

namespace perfdojo::ir {

/// What a transform reports about the mutation it performed, consumed by
/// CanonicalArena::probe/rebase and DeltaContext's undo and commit.
/// Default-constructed it claims everything changed — always safe, never
/// fast.
///
/// Transforms are atomic rewrites of one site of the scope tree, so a
/// non-conservative summary names at most ONE dirty root. Its contract: the
/// root must name a node that exists in BOTH the pre- and post-mutation
/// program with an unchanged enclosing-scope chain (same ancestors, same
/// depth), and its subtree (in the post program) must contain every node
/// whose canonical line changed and every node created or destroyed.
/// kInvalidNode says the tree is untouched (a header-only mutation). If buffers (or the program
/// header in any way) changed, buffers_changed must be set.
struct MutationSummary {
  bool whole_tree = true;
  bool buffers_changed = true;
  /// Root of the dirty subtree, or kInvalidNode for an untouched tree
  /// (meaningful only when !whole_tree).
  NodeId dirty = kInvalidNode;

  static MutationSummary conservative() { return MutationSummary{}; }
  static MutationSummary none() {
    MutationSummary m;
    m.whole_tree = false;
    m.buffers_changed = false;
    return m;
  }
};

}  // namespace perfdojo::ir
