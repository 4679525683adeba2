// Delta-aware candidate generation: neighbors of a base program are treated
// as (base, action) pairs. neighborHash() prices the pair's identity — the
// canonical hash the memo table keys on — by mutating a scratch copy in
// place, probing a read-only canonical form of the base, and undoing the
// mutation by restoring only the reported-dirty subtrees. No tree copy is
// made per neighbor: a cost model prices the live scratch tree inside
// neighborVisit(), and an accepted move is committed in place by accept().
//
// The canonical form is an ir::CanonicalArena: dense pre-order SoA
// flattening with the canonical text in one contiguous slab. Probing splices
// — clean byte ranges hash in single FNV calls, undo looks nodes up through
// the arena's NodeId->slot index and parent chains instead of O(n) tree
// searches, and the id watermark (`next_id`) resets in O(1). Accepting
// rebases the arena in place from the mutation summary.
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
  /// Neighbors whose transform reported conservatively (whole-program
  /// re-render on both the forward and the undo update).
  std::int64_t whole_tree_fallbacks = 0;
  /// Accepted moves committed through accept().
  std::int64_t accepts = 0;
};

class DeltaContext {
 public:
  DeltaContext() = default;

  /// Fixes the base program; copies it twice (base + scratch) and renders
  /// its canonical form once. Amortized over every neighbor hashed from it.
  void bind(const ir::Program& base);

  bool bound() const { return bound_; }
  const ir::Program& base() const { return base_; }
  std::uint64_t baseHash() const { return base_hash_; }

  /// Canonical hash of a.apply(base()) without performing the copy or the
  /// validation: apply in place on the scratch tree, probe the base's
  /// canonical form (read-only), undo. Throws if the action does not apply —
  /// and on ANY throw (apply, probe, or an undo over a bad mutation report)
  /// fully resynchronizes the scratch state, so the context stays usable and
  /// the next neighborHash is bit-exact.
  std::uint64_t neighborHash(const transform::Action& a);

  /// Read-only visitor over a live neighbor: (canonical hash, the mutated
  /// scratch tree). The program reference is valid only for the duration of
  /// the call — the undo that follows reuses its storage.
  using NeighborVisitor =
      std::function<void(std::uint64_t, const ir::Program&)>;

  /// neighborHash() that additionally hands the mutated scratch tree to
  /// `visit` between the probe and the undo. The visited program is
  /// content-identical to a.apply(base()) — so a cost model evaluated inside
  /// the visitor prices the candidate without a second apply or a full base
  /// copy. Same exception contract as neighborHash: any throw (including
  /// from the visitor) resynchronizes the scratch state before propagating.
  std::uint64_t neighborVisit(const transform::Action& a,
                              const NeighborVisitor& visit);

  /// Commits an accepted action: the context's base BECOMES a.apply(base()).
  /// The mutation is applied (validated) in place on the scratch tree and
  /// the canonical form is REBASED from the mutation summary — clean slabs
  /// and columns move, only dirty subtrees re-render — instead of being
  /// rebuilt from scratch, making acceptance O(dirty subtree) like pricing.
  /// The context afterwards is indistinguishable from a fresh bind of the
  /// new base (bit-identical hashes). Throws if the action does not apply;
  /// the context then still describes the OLD base, fully usable.
  /// Returns the new base; `mut_out` (optional) receives the mutation
  /// summary so callers can splice their own per-base indices (the search
  /// loop's ActionSet) from the same report.
  const ir::Program& accept(const transform::Action& a,
                            ir::MutationSummary* mut_out = nullptr);

  const DeltaStats& stats() const { return stats_; }

 private:
  void undo(const ir::MutationSummary& mut);
  /// Finds the node with `id` in the scratch tree by walking the base
  /// parent chain from the arena (O(depth * siblings), not O(n)); nullptr
  /// if the mutation report broke the unchanged-ancestors contract.
  ir::Node* locateScratch(ir::NodeId id);

  ir::Program base_;
  ir::Program scratch_;
  ir::CanonicalArena arena_;  // canonical form of base_
  /// NodeId -> node in base_ (dense, built at bind): O(1) undo sources.
  std::vector<const ir::Node*> base_index_;
  std::vector<ir::NodeId> chain_buf_;
  std::uint64_t base_hash_ = 0;
  bool bound_ = false;
  DeltaStats stats_;
};

}  // namespace perfdojo::search
