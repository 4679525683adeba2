// Arena-flattened canonical form of one program: the allocation-free way
// the canonical hash is maintained across in-place mutations.
//
// FNV-1a is sequential over bytes, so the canonical hash cannot be composed
// from independent child hashes while staying bit-identical to
// fnv1a(canonicalText(p)) — and bit identity is non-negotiable: memo tables,
// witness files and telemetry traces all key on that exact value. What can
// be kept per subtree is the expensive part, the rendered text:
//
//   * bind() flattens the tree once into dense pre-order structure-of-arrays
//     storage: per-slot NodeId, subtree interval, parent slot, depth, and the
//     scope fields the cost models and renderer touch (extent, annotation,
//     kind). NodeId -> slot is a dense vector (ids are small, monotonically
//     allocated), not a hash map.
//   * the canonical tree text lives in ONE contiguous slab (`text_`), with
//     per-slot byte offsets. Because slots are pre-order, the bytes of any
//     subtree are one contiguous range: [line_begin(s), line_begin(subtree_end(s))).
//   * probe() SPLICES instead of walking: clean regions between dirty
//     subtrees are hashed as single fnv1a calls over slab byte ranges; only
//     the reported-dirty subtrees of the mutated tree are rendered (into a
//     reused scratch buffer — zero steady-state allocation). The walk visits
//     only the ancestor spine of the dirty roots, never the clean interior.
//
// The invariant is the same non-negotiable one the whole evaluation layer
// keys on, enforced by the property suite and the fuzzer's incremental-hash
// and arena-delta oracle layers:
//
//   hash() == fnv1a(canonicalText(p))          after bind(p)
//   probe(q, mut) == fnv1a(canonicalText(q))   for any adequately-reported
//                                              mutation p -> q
//   hash() == fnv1a(canonicalText(q))          after rebase(q, mut)
//
// The arena is strictly read-only after bind(): probe() commits nothing, so
// a caller that mutates-probes-undoes (search::DeltaContext) never has to
// reset anything here — that is what makes the context's undo a watermark
// reset instead of a cache rebuild.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"

namespace perfdojo::ir {

struct MutationSummary;

class CanonicalArena {
 public:
  CanonicalArena() = default;
  explicit CanonicalArena(const Program& p) { bind(p); }

  /// Flattens `p` into the arena: one pre-order pass renders every node line
  /// into the contiguous slab and fills the SoA columns. O(n) — amortized
  /// over every probe until the next bind.
  void bind(const Program& p);

  bool bound() const { return bound_; }

  /// fnv1a(canonicalText(p)) of the bound program.
  std::uint64_t hash() const { return hash_; }

  /// fnv1a(canonicalText(q)) for a program `q` mutated *away from* the bound
  /// one as described by `mut`, computed read-only: clean regions are hashed
  /// straight from the slab, dirty subtrees are rendered on the fly and
  /// discarded. Falls back to a full render for conservative summaries (or a
  /// report naming nodes the arena has never seen).
  std::uint64_t probe(const Program& q, const MutationSummary& mut) const;

  /// Re-binds the arena IN PLACE to a program `q` mutated *away from* the
  /// bound one — the accepted-move path. Columns and slab bytes of clean
  /// subtrees are bulk-copied with slot/byte deltas (memory-bound, no
  /// rendering); only the reported-dirty subtrees are re-rendered, exactly
  /// the regions probe() would have rendered. Falls back to bind(q) on
  /// conservative summaries. Afterwards the arena is indistinguishable from
  /// a fresh bind(q): hash(), text() and every accessor agree bit-for-bit
  /// (the property suite checks this column by column).
  void rebase(const Program& q, const MutationSummary& mut);

  // --- SoA accessors (slot = dense pre-order index, excluding the root) ---

  std::size_t size() const { return id_.size(); }
  NodeId idOf(std::size_t slot) const { return id_[slot]; }
  /// Exclusive end of the subtree rooted at `slot` (pre-order interval).
  std::size_t subtreeEnd(std::size_t slot) const { return subtree_end_[slot]; }
  /// Parent slot; -1 for children of the root container.
  std::int32_t parentOf(std::size_t slot) const { return parent_[slot]; }
  int depthOf(std::size_t slot) const { return depth_[slot]; }
  bool isScope(std::size_t slot) const { return is_scope_[slot] != 0; }
  std::int64_t extentOf(std::size_t slot) const { return extent_[slot]; }
  LoopAnno annoOf(std::size_t slot) const {
    return static_cast<LoopAnno>(anno_[slot]);
  }
  /// Slot of a NodeId; -1 if the id is not part of the bound program.
  std::int32_t slotOf(NodeId id) const {
    return id < slot_of_id_.size() ? slot_of_id_[id] : -1;
  }
  /// Enclosing-scope id chain of `slot` (outermost first), rebuilt from the
  /// parent column. O(depth); writes into `out` without allocating when its
  /// capacity suffices.
  void chainOf(std::size_t slot, std::vector<NodeId>& out) const;

  /// The slab bytes of one subtree (testing aid; printTree fragment).
  std::string subtreeText(std::size_t slot) const {
    return text_.substr(line_begin_[slot],
                        line_begin_[subtree_end_[slot]] - line_begin_[slot]);
  }
  /// Full canonical text reassembled from the slab (testing aid).
  std::string text() const { return header_ + text_; }

 private:
  std::uint64_t fullRender(const Program& q) const;

  // SoA columns, all indexed by pre-order slot. line_begin_ has one extra
  // sentinel entry (== text_.size()) so subtree byte ranges need no special
  // casing.
  std::vector<NodeId> id_;
  std::vector<std::uint32_t> subtree_end_;
  std::vector<std::uint32_t> line_begin_;
  std::vector<std::int32_t> parent_;
  std::vector<std::uint16_t> depth_;
  std::vector<std::uint8_t> is_scope_;
  std::vector<std::uint8_t> anno_;
  std::vector<std::int64_t> extent_;
  std::vector<std::int32_t> slot_of_id_;  // dense NodeId -> slot, -1 = absent

  std::string header_;
  std::string text_;  // pre-order concatenation of node lines (== printTree)
  std::uint64_t hash_ = 0;
  bool bound_ = false;

  // Reused per-probe scratch (rendered dirty lines, dirty slot list, iterator
  // chains). probe() is logically const; these make it allocation-free in
  // steady state. A CanonicalArena is not safe for concurrent probes — each
  // thread owns its own instance (matching DeltaContext's contract).
  mutable std::string render_buf_;
  mutable std::vector<std::uint32_t> dirty_slots_;
  mutable std::vector<NodeId> chain_buf_;
};

}  // namespace perfdojo::ir
