#include "search/delta.h"

#include <utility>

#include "support/common.h"

namespace perfdojo::search {

namespace {

void indexNodes(const ir::Node& n, std::vector<const ir::Node*>& index) {
  if (n.id < index.size()) index[n.id] = &n;
  for (const auto& c : n.children) indexNodes(c, index);
}

}  // namespace

void DeltaContext::bind(ir::Program base) {
  pending_ = false;
  base_ = std::move(base);
  scratch_ = base_;
  arena_.bind(base_);
  base_hash_ = arena_.hash();
  base_index_.assign(base_.next_id, nullptr);
  indexNodes(base_.root, base_index_);
  bound_ = true;
}

bool DeltaContext::pending(const transform::Action& a) const {
  return pending_ && a.transform == pending_action_.transform &&
         a.loc == pending_action_.loc;
}

void DeltaContext::resync() {
  // Any throw in an undo/mutate/probe/visit sequence may leave scratch_
  // partially mutated; resynchronize it so the context stays usable and
  // the next neighbor hashes bit-exactly. The canonical form is only ever
  // touched by accept(), which handles its own recovery.
  pending_ = false;
  scratch_ = base_;
}

void DeltaContext::applyNeighbor(const transform::Action& a) {
  if (pending_) {
    pending_ = false;
    undo(pending_mut_);
  }
  // validate=false: the scratch program never escapes the context, and the
  // action came from findApplicable on this very base.
  a.transform->applyInPlace(scratch_, a.loc, &pending_mut_,
                            /*validate=*/false);
  pending_action_ = a;
  pending_ = true;
}

void DeltaContext::visit(const transform::Action& a, const Visitor& fn) {
  require(bound_, "DeltaContext: bind() a base program first");
  try {
    applyNeighbor(a);
    // The scratch tree IS the candidate now, and stays it until the next
    // call: the caller prices it in place.
    if (fn) fn(scratch_);
  } catch (...) {
    resync();
    throw;
  }
}

std::uint64_t DeltaContext::neighborVisit(const transform::Action& a,
                                          const NeighborVisitor& fn) {
  require(bound_, "DeltaContext: bind() a base program first");
  ++stats_.neighbors_hashed;
  try {
    applyNeighbor(a);
    if (pending_mut_.whole_tree) ++stats_.whole_tree_fallbacks;
    // probe() hashes the mutated scratch against the base's read-only
    // canonical form without committing anything, so the arena keeps
    // describing the base while the neighbor stays applied.
    const std::uint64_t h = arena_.probe(scratch_, pending_mut_);
    if (fn) fn(h, scratch_);
    return h;
  } catch (...) {
    resync();
    throw;
  }
}

std::uint64_t DeltaContext::neighborHash(const transform::Action& a) {
  return neighborVisit(a, nullptr);
}

const ir::Program& DeltaContext::accept(const transform::Action& a,
                                        ir::MutationSummary* mut_out) {
  require(bound_, "DeltaContext: bind() a base program first");
  const bool in_place = pending(a);
  try {
    // A visited neighbor that is the accepted move is committed as it
    // stands. Otherwise the move is applied with validate=false, which skips
    // only the post-mutation structural validation (an O(program) walk with
    // string rendering — the hot cost of an accepted move): applyInPlace
    // still requires isApplicable on this exact base, so stale or forged
    // locations throw either way, and transform-apply bugs are the
    // apply/interp oracle layers' and the property suite's job, on every
    // path including this one.
    if (!in_place) applyNeighbor(a);
    pending_ = false;
    arena_.rebase(scratch_, pending_mut_);
    foldIntoBase(pending_mut_);
  } catch (...) {
    // Any throw — in the undo, the apply, the arena's rebase or the fold's
    // checks — may leave scratch_ and the canonical form part-way to the new
    // state. base_ is untouched until the fold's checks pass, so
    // resynchronize both to it; the context keeps describing the old base,
    // usable.
    resync();
    arena_.bind(base_);
    throw;
  }
  ++stats_.accepts;
  if (in_place) ++stats_.accepts_in_place;
  if (mut_out) *mut_out = pending_mut_;
  base_hash_ = arena_.hash();
  base_index_.assign(base_.next_id, nullptr);
  indexNodes(base_.root, base_index_);
  return base_;
}

void DeltaContext::foldIntoBase(const ir::MutationSummary& mut) {
  // The undo in reverse: copy only the reported-dirty subtree instead of
  // the whole program. Multi-root reports fall back to the full copy (roots
  // may nest, and a prior fold would invalidate the base index entries
  // under an outer root).
  if (mut.whole_tree || mut.dirty_scopes.size() != 1) {
    base_ = scratch_;
    return;
  }
  const ir::NodeId id = mut.dirty_scopes.front();
  ir::Node* dst = nullptr;
  const ir::Node* src = nullptr;
  if (id != scratch_.root.id) {
    // The arena was just rebased, so its chains describe scratch_ (the
    // NEW tree); the base index still describes the old base.
    src = locateScratch(id);
    dst = id < base_index_.size() ? const_cast<ir::Node*>(base_index_[id])
                                  : nullptr;
    require(dst != nullptr && src != nullptr,
            "DeltaContext: dirty subtree " + std::to_string(id) +
                " missing during accept (bad mutation report)");
  }
  if (mut.buffers_changed) base_.buffers = scratch_.buffers;
  base_.next_id = scratch_.next_id;
  if (dst)
    *dst = *src;
  else
    base_.root = scratch_.root;
}

ir::Node* DeltaContext::locateScratch(ir::NodeId id) {
  const std::int32_t slot = arena_.slotOf(id);
  if (slot < 0) return nullptr;
  // The arena's parent column gives the base ancestor chain; by the
  // MutationSummary contract a dirty root's chain is unchanged in the
  // mutated tree, so descending scratch_ by those ids lands on the node.
  arena_.chainOf(static_cast<std::size_t>(slot), chain_buf_);
  ir::Node* cur = &scratch_.root;
  for (ir::NodeId cid : chain_buf_) {
    ir::Node* next = nullptr;
    for (auto& c : cur->children)
      if (c.id == cid) {
        next = &c;
        break;
      }
    if (!next) return nullptr;
    cur = next;
  }
  for (auto& c : cur->children)
    if (c.id == id) return &c;
  return nullptr;
}

void DeltaContext::undo(const ir::MutationSummary& mut) {
  if (mut.whole_tree) {
    scratch_ = base_;
    return;
  }
  if (mut.buffers_changed) scratch_.buffers = base_.buffers;
  scratch_.next_id = base_.next_id;  // watermark: ids past it never existed
  for (ir::NodeId id : mut.dirty_scopes) {
    if (id == scratch_.root.id) {
      scratch_.root = base_.root;
      continue;
    }
    const ir::Node* src = id < base_index_.size() ? base_index_[id] : nullptr;
    ir::Node* dst = locateScratch(id);
    require(dst != nullptr && src != nullptr,
            "DeltaContext: dirty subtree " + std::to_string(id) +
                " missing during undo (bad mutation report)");
    *dst = *src;
  }
}

}  // namespace perfdojo::search
