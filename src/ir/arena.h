// Arena-flattened canonical form of one program: the way the canonical
// hash is maintained across in-place mutations without re-rendering clean
// subtrees.
//
// FNV-1a is sequential over bytes, so the canonical hash cannot be composed
// from independent child hashes while staying bit-identical to
// fnv1a(canonicalText(p)) — and bit identity is non-negotiable: memo tables,
// witness files and telemetry traces all key on that exact value. What can
// be kept per subtree is the expensive part, the rendered text:
//
//   * the arena holds the tree flattened into dense pre-order
//     structure-of-arrays storage: per-slot NodeId, subtree interval, parent
//     slot, depth, and the scope fields the cost models and renderer touch
//     (extent, annotation, kind). NodeId -> slot is a dense vector (ids are
//     small, monotonically allocated), not a hash map.
//   * the canonical tree text lives in ONE contiguous slab, with per-slot
//     byte offsets. Because slots are pre-order, the bytes of any subtree
//     are one contiguous range: [line_begin(s), line_begin(subtree_end(s))).
//   * probe() SPLICES instead of walking: a mutation report names at most
//     one dirty root (ir::MutationSummary), resolved once to its base slot,
//     so "is this subtree clean?" is one interval compare against that
//     slot. Clean regions around the dirty subtree are hashed as single
//     fnv1a calls over slab byte ranges; the dirty subtree of the mutated
//     tree is rendered line by line into a reused buffer, with a reused
//     vector of line starts, and hashed in one call. The walk visits only
//     the ancestor spine of the dirty root, never the clean interior. Where
//     only a full render is correct (a whole-tree report, the root
//     container, an unbound arena, a root or a clean node the base never
//     had) the header and every line go into the same reused buffers. Once
//     they have grown to size, no probe allocates
//     (tests/test_probe_alloc.cpp checks this).
//   * probe() keeps what it rendered, and adoptProbe() commits it: the new
//     slab is the old bytes of the clean columns around the probe's rendered
//     lines (all of them, plus the header, after a full render), and the new
//     hash is the probe's. An accepted move is rendered and hashed once, by
//     the probe that priced it. rebase() is probe() then adoptProbe(), and
//     bind() is a rebase with a whole-tree report; the columns are built into
//     a spare set kept from the previous commit and the two swapped, so an
//     accepted move reuses the storage of the one before.
//
// The invariant is the same non-negotiable one the whole evaluation layer
// keys on, enforced by the property suite and the fuzzer's incremental-hash
// and arena-delta oracle layers:
//
//   hash() == fnv1a(canonicalText(p))          after bind(p)
//   probe(q, mut) == fnv1a(canonicalText(q))   for any adequately-reported
//                                              mutation p -> q
//   hash() == fnv1a(canonicalText(q))          after rebase(q, mut), or
//                                              probe(q, mut), adoptProbe(q)
//
// A bind() or rebase() that throws (a tree that does not render, such as an
// iterator naming a scope that does not enclose it) leaves the arena
// unbound: probe() then renders in full, and so does rebase().
//
// The columns are read-only between commits: probe() changes only its own
// scratch, so a caller that mutates-probes-undoes (search::DeltaContext)
// never has to reset anything here — that is what makes the context's undo
// a watermark reset instead of a cache rebuild.
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

  /// Flattens `p` into the arena: renders every node line into the
  /// contiguous slab and fills the SoA columns. O(n) — amortized over every
  /// probe until the next commit. If a line fails to render (an iterator
  /// naming a scope that does not enclose it), the throw leaves the arena
  /// unbound.
  void bind(const Program& p);

  bool bound() const { return bound_; }

  /// fnv1a(canonicalText(p)) of the bound program.
  std::uint64_t hash() const { return hash_; }

  /// fnv1a(canonicalText(q)) for a program `q` mutated *away from* the bound
  /// one as described by `mut`. Leaves the columns as they are: clean
  /// regions are hashed straight from the slab, the dirty subtree is
  /// rendered into reused scratch and hashed. Renders in full for a
  /// whole-tree summary, the root container, an unbound arena, or a node
  /// the arena has never seen outside the reported subtree. The rendered
  /// lines stay for adoptProbe() until the next probe or commit.
  std::uint64_t probe(const Program& q, const MutationSummary& mut) const;

  /// Re-binds the arena IN PLACE to `q`, which must be the program the last
  /// probe() hashed, unchanged since — the accepted-move path. Renders and
  /// hashes nothing: columns and slab bytes of clean subtrees are
  /// bulk-copied with slot/byte deltas, the probe's rendered lines become
  /// the dirty subtree's bytes (or the whole slab, and its header the
  /// header, after a full render), and the probe's hash becomes hash().
  /// Afterwards the arena is indistinguishable from a fresh bind(q): hash(),
  /// text() and every accessor agree bit-for-bit (the property suite checks
  /// this column by column). Throws if no probe is left to adopt (a bind or
  /// commit since, or a probe that threw) or if `q` does not fit the
  /// probe's render; the arena is then unbound.
  void adoptProbe(const Program& q);

  /// probe(q, mut) followed by adoptProbe(q). Like bind(), a throw leaves
  /// the arena unbound.
  void rebase(const Program& q, const MutationSummary& mut);

  // --- SoA accessors (slot = dense pre-order index, excluding the root) ---

  std::size_t size() const { return cols_.id.size(); }
  NodeId idOf(std::size_t slot) const { return cols_.id[slot]; }
  /// Exclusive end of the subtree rooted at `slot` (pre-order interval).
  std::size_t subtreeEnd(std::size_t slot) const {
    return cols_.subtree_end[slot];
  }
  /// Parent slot; -1 for children of the root container.
  std::int32_t parentOf(std::size_t slot) const { return cols_.parent[slot]; }
  int depthOf(std::size_t slot) const { return cols_.depth[slot]; }
  bool isScope(std::size_t slot) const { return cols_.is_scope[slot] != 0; }
  std::int64_t extentOf(std::size_t slot) const { return cols_.extent[slot]; }
  LoopAnno annoOf(std::size_t slot) const {
    return static_cast<LoopAnno>(cols_.anno[slot]);
  }
  /// Slot of a NodeId; -1 if the id is not part of the bound program.
  std::int32_t slotOf(NodeId id) const { return cols_.slotOf(id); }
  /// Enclosing-scope id chain of `slot` (outermost first), rebuilt from the
  /// parent column. O(depth); writes into `out` without allocating when its
  /// capacity suffices.
  void chainOf(std::size_t slot, std::vector<NodeId>& out) const;

  /// The slab bytes of one subtree (testing aid; printTree fragment).
  std::string subtreeText(std::size_t slot) const {
    const auto& lb = cols_.line_begin;
    return cols_.text.substr(lb[slot], lb[cols_.subtree_end[slot]] - lb[slot]);
  }
  /// Full canonical text reassembled from the slab (testing aid).
  std::string text() const { return header_ + cols_.text; }

 private:
  // SoA columns, all indexed by pre-order slot. line_begin has one extra
  // sentinel entry (== text.size()) so subtree byte ranges need no special
  // casing.
  struct Columns {
    std::vector<NodeId> id;
    std::vector<std::uint32_t> subtree_end;
    std::vector<std::uint32_t> line_begin;
    std::vector<std::int32_t> parent;
    std::vector<std::uint16_t> depth;
    std::vector<std::uint8_t> is_scope;
    std::vector<std::uint8_t> anno;
    std::vector<std::int64_t> extent;
    std::vector<std::int32_t> slot_of_id;  // dense NodeId -> slot, -1 = absent
    std::string text;  // pre-order concatenation of node lines (== printTree)

    std::int32_t slotOf(NodeId id) const {
      return id < slot_of_id.size() ? slot_of_id[id] : -1;
    }
    /// Whether slot `s` lies in the subtree rooted at `slot`: an interval
    /// compare, false for a negative `s`.
    bool encloses(std::int32_t slot, std::int32_t s) const {
      return s >= slot && static_cast<std::uint32_t>(s) < subtree_end[slot];
    }
    /// Empties every column, keeping its capacity.
    void clear();
    /// Appends the column entries of node `n`, whose line starts at byte
    /// `line` of the slab (subtree end patched by the caller), and returns
    /// its slot.
    std::int32_t push(const Node& n, std::int32_t parent, int depth,
                      std::uint32_t line);
    /// Appends the sentinel line offset and rebuilds the NodeId -> slot map.
    void finish(NodeId next_id);
  };

  // dirtySlot() results that name no slot.
  static constexpr std::int32_t kCleanTree = -1;
  static constexpr std::int32_t kRenderAll = -2;

  /// What probe() re-renders for `mut`: the base slot of its dirty root,
  /// kCleanTree for an untouched tree, or kRenderAll when only a full render
  /// is correct (an unbound arena, a whole-tree report, the root container,
  /// or a root the base never had).
  std::int32_t dirtySlot(const Program& q, const MutationSummary& mut) const;
  /// The probe of a dirty slot or a clean tree: false, with the scratch
  /// spoiled, if the walk meets a clean node the base never had.
  bool splice(const Program& q, const MutationSummary& mut,
              std::int32_t dirty, std::uint64_t& h) const;
  /// The full-render probe; returns fnv1a(canonicalText(q)).
  std::uint64_t renderAll(const Program& q) const;
  /// Renders the subtree rooted at `n` into render_buf_, one line start per
  /// node into line_starts_.
  void renderSubtree(const Node& n, int depth) const;
  /// Renders q's canonical header into header_buf_.
  void renderHeader(const Program& q) const;

  Columns cols_;   // the bound program
  Columns spare_;  // the previous commit's columns, kept for their capacity
  std::string header_;
  std::uint64_t hash_ = 0;
  bool bound_ = false;

  // What the last probe() left for adoptProbe().
  struct Probed {
    bool ready = false;  // a probe finished since the last commit
    std::int32_t dirty = kCleanTree;  // its dirtySlot(), after any fallback
    bool header = false;              // header_buf_ holds its header
    std::uint64_t hash = 0;
  };

  // probe() is logically const; these make it allocation-free in steady
  // state and keep its render for adoptProbe(). A CanonicalArena is not
  // safe for concurrent probes — each thread owns its own instance
  // (matching DeltaContext's contract).
  mutable Probed probed_;
  mutable std::string render_buf_;  // the rendered lines, pre-order
  mutable std::vector<std::uint32_t> line_starts_;  // into render_buf_
  mutable std::string header_buf_;
  mutable std::vector<std::size_t> order_buf_;  // header buffer order
  mutable std::vector<NodeId> chain_buf_;       // enclosing scopes
};

}  // namespace perfdojo::ir
