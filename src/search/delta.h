// Delta-aware candidate generation: neighbors of a base program are treated
// as (base, action) pairs. neighborHash() prices the pair's identity — the
// canonical hash the memo table keys on — by mutating a scratch copy in
// place and probing a read-only canonical form of the base. No tree copy is
// made per neighbor: visit() hands the live scratch tree to a cost model,
// and neighborVisit() is visit() plus the probe.
//
// A visited neighbor stays applied on the scratch tree until the next call
// needs the base back: the next visit first undoes it by copying the one
// reported-dirty subtree back from the base, while an accept() of that same
// action commits it as it stands, with no undo and no second apply. A search
// that prices a neighbor and then accepts it (most Metropolis steps) applies
// the move once.
//
// The canonical form is an ir::CanonicalArena: dense pre-order SoA
// flattening with the canonical text in one contiguous slab. Probing splices
// — clean byte ranges hash in single FNV calls — and keeps what it rendered.
// Accepting the neighbor neighborVisit() just probed commits that render and
// hash (CanonicalArena::adoptProbe), so the move is rendered and hashed
// once; any other accept rebases the arena, which probes the accepted tree
// first. Any apply, visit, bind or throw in between drops the record of the
// probe. Undo and commit are one copy in
// opposite directions: the dirty root is found in both trees by one lockstep
// descent along the arena's parent chain, and the id watermark (`next_id`)
// resets in O(1). A header-only mutation copies only the buffers. Neither
// undo nor commit walks or copies the tree outside the dirty root's chain
// and subtree unless the mutation report is whole-tree.
//
// Hashes are bit-identical to ir::canonicalHash(action.apply(base)) — the
// property suite and the fuzzer's arena-delta oracle layer enforce this — so
// a delta-priced search makes exactly the decisions the definition implies.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ir/arena.h"
#include "ir/incremental.h"
#include "ir/program.h"
#include "transform/transform.h"

namespace perfdojo::search {

struct DeltaStats {
  std::int64_t neighbors_hashed = 0;
  /// Neighbors whose transform reported conservatively (a whole-program
  /// render in the probe, a whole-program copy in the undo).
  std::int64_t whole_tree_fallbacks = 0;
  /// Accepted moves committed through accept().
  std::int64_t accepts = 0;
  /// Of those, the accepts whose action was still applied from the last
  /// visit and was committed as it stood (no undo, no second apply).
  std::int64_t accepts_in_place = 0;
};

class DeltaContext {
 public:
  DeltaContext() = default;

  /// Fixes the base program: takes it over, copies it once (the scratch
  /// tree) and renders its canonical form once. Amortized over every
  /// neighbor hashed from it. Drops any visited neighbor.
  void bind(ir::Program base);

  bool bound() const { return bound_; }
  const ir::Program& base() const { return base_; }
  std::uint64_t baseHash() const { return base_hash_; }
  /// The canonical form of base(), read-only.
  const ir::CanonicalArena& arena() const { return arena_; }

  /// Read-only visitor over a live neighbor, the mutated scratch tree.
  using Visitor = std::function<void(const ir::Program&)>;

  /// Applies `a` in place on the scratch tree (after undoing the neighbor
  /// visited before, if any) and hands the tree to `fn`. The visited
  /// program is content-identical to a.apply(base()), so a cost model
  /// evaluated inside the visitor prices the candidate without a copy. The
  /// neighbor stays applied afterwards: the program reference stays valid
  /// until the next call on this context. Throws if the action does not
  /// apply; on ANY throw (the undo of the previous neighbor, the apply, or
  /// the visitor) the scratch tree is resynchronized to the base and no
  /// neighbor is left applied, so the context stays usable.
  void visit(const transform::Action& a, const Visitor& fn);

  /// Visitor over a live neighbor that also receives its canonical hash.
  using NeighborVisitor =
      std::function<void(std::uint64_t, const ir::Program&)>;

  /// visit() plus a probe of the base's canonical form (read-only): returns
  /// the canonical hash of a.apply(base()) and hands it to `fn` with the
  /// tree. Same lifetime and exception contract as visit().
  std::uint64_t neighborVisit(const transform::Action& a,
                              const NeighborVisitor& fn);

  /// neighborVisit() without a visitor.
  std::uint64_t neighborHash(const transform::Action& a);

  /// Commits an accepted action: the context's base BECOMES a.apply(base()).
  /// If `a` is the neighbor visited last it is committed as it stands;
  /// otherwise that neighbor is undone and `a` applied in place. The
  /// canonical form is then committed in place from the mutation summary —
  /// clean slabs and columns move, the dirty subtree's lines come from the
  /// probe of `a` (neighborVisit's, or one made now) — instead of being
  /// rebuilt from scratch, and the same subtree is copied into the base.
  /// The context afterwards is indistinguishable from a fresh bind of the
  /// new base (bit-identical hashes). Throws if the action does not apply
  /// or the new base does not render; the context then still describes the
  /// OLD base, fully usable.
  /// Returns the new base; `mut_out` (optional) receives the mutation
  /// summary.
  const ir::Program& accept(const transform::Action& a,
                            ir::MutationSummary* mut_out = nullptr);

  const DeltaStats& stats() const { return stats_; }

 private:
  /// Undoes the pending neighbor, if any, then applies `a` in place on the
  /// scratch tree and records it as the pending neighbor.
  void applyNeighbor(const transform::Action& a);
  /// Whether `a` is the neighbor still applied on the scratch tree.
  bool pending(const transform::Action& a) const;
  /// The recovery of every throw: scratch_ back to base_, nothing applied.
  void resync();
  /// Copies what `mut` reports changed from `from` into `to`, which holds
  /// `from` before (the undo) or after (the commit) that mutation: the
  /// buffers if they changed, the id watermark and the dirty subtree, or
  /// the whole program for a whole-tree report. The arena must describe one
  /// of the two trees. Both ends of the copy are located before anything is
  /// written, so a report naming a root either tree lacks throws with `to`
  /// untouched.
  void copyDirty(const ir::MutationSummary& mut, const ir::Program& from,
                 ir::Program& to);

  ir::Program base_;
  ir::Program scratch_;  // base_, or base_ with the visited neighbor applied
  ir::CanonicalArena arena_;  // canonical form of base_
  std::vector<ir::NodeId> chain_buf_;
  /// The visited neighbor still applied on scratch_ and its mutation
  /// summary; meaningful only while `pending_` is set.
  transform::Action pending_action_;
  ir::MutationSummary pending_mut_;
  bool pending_ = false;
  /// Whether the arena's last probe is of the pending neighbor, so that an
  /// accept of it adopts the probe's render.
  bool probed_ = false;
  std::uint64_t base_hash_ = 0;
  bool bound_ = false;
  DeltaStats stats_;
};

}  // namespace perfdojo::search
