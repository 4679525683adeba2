#include "search/delta.h"

#include "support/common.h"

namespace perfdojo::search {

namespace {

void indexNodes(const ir::Node& n, std::vector<const ir::Node*>& index) {
  if (n.id < index.size()) index[n.id] = &n;
  for (const auto& c : n.children) indexNodes(c, index);
}

}  // namespace

void DeltaContext::bind(const ir::Program& base) {
  base_ = base;
  scratch_ = base_;
  arena_.bind(base_);
  base_hash_ = arena_.hash();
  base_index_.assign(base_.next_id, nullptr);
  indexNodes(base_.root, base_index_);
  bound_ = true;
}

std::uint64_t DeltaContext::neighborHash(const transform::Action& a) {
  return neighborVisit(a, nullptr);
}

std::uint64_t DeltaContext::neighborVisit(const transform::Action& a,
                                          const NeighborVisitor& visit) {
  require(bound_, "DeltaContext: bind() a base program first");
  ++stats_.neighbors_hashed;
  ir::MutationSummary mut;
  try {
    // validate=false: the scratch program is undone immediately and never
    // escapes, and the action came from findApplicable on this very base.
    a.transform->applyInPlace(scratch_, a.loc, &mut, /*validate=*/false);
    if (mut.whole_tree) ++stats_.whole_tree_fallbacks;
    // probe() hashes the mutated scratch against the base's read-only
    // canonical form without committing anything, so the undo only has to
    // restore the tree — the arena keeps describing the base throughout.
    const std::uint64_t h = arena_.probe(scratch_, mut);
    // The scratch tree IS the candidate right now; let the caller price it
    // in place before the undo recycles its storage.
    if (visit) visit(h, scratch_);
    undo(mut);
    return h;
  } catch (...) {
    // Any throw in the mutate/probe/undo sequence — not just the apply — may
    // leave scratch_ partially mutated; resynchronize before propagating so
    // the context stays usable and the next neighbor hashes bit-exactly.
    // The canonical form was never touched, so it still renders the base.
    scratch_ = base_;
    throw;
  }
}

const ir::Program& DeltaContext::accept(const transform::Action& a,
                                        ir::MutationSummary* mut_out) {
  require(bound_, "DeltaContext: bind() a base program first");
  ir::MutationSummary mut;
  try {
    // validate=false skips only the post-mutation structural validation (an
    // O(program) walk with string rendering — the hot cost of an accepted
    // move): applyInPlace still requires isApplicable on this exact base, so
    // stale or forged locations throw either way, and transform-apply bugs
    // are the apply/interp oracle layers' and the property suite's job, on
    // every path including this one.
    a.transform->applyInPlace(scratch_, a.loc, &mut, /*validate=*/false);
  } catch (...) {
    scratch_ = base_;  // context keeps describing the old base, usable
    throw;
  }
  ++stats_.accepts;
  if (mut_out) *mut_out = mut;
  arena_.rebase(scratch_, mut);
  base_hash_ = arena_.hash();
  // Fold the accepted mutation into base_ — the undo in reverse: copy only
  // the reported-dirty subtree instead of the whole program. Multi-root
  // reports fall back to the full copy (roots may nest, and a prior fold
  // would invalidate the base index entries under an outer root).
  if (!mut.whole_tree && mut.dirty_scopes.size() == 1) {
    if (mut.buffers_changed) base_.buffers = scratch_.buffers;
    base_.next_id = scratch_.next_id;
    const ir::NodeId id = mut.dirty_scopes.front();
    if (id == scratch_.root.id) {
      base_.root = scratch_.root;
    } else {
      // The arena was just rebased, so its chains describe scratch_ (the
      // NEW tree); the base index still describes the old base.
      const ir::Node* src = locateScratch(id);
      ir::Node* dst = id < base_index_.size()
                          ? const_cast<ir::Node*>(base_index_[id])
                          : nullptr;
      require(dst != nullptr && src != nullptr,
              "DeltaContext: dirty subtree " + std::to_string(id) +
                  " missing during accept (bad mutation report)");
      *dst = *src;
    }
  } else {
    base_ = scratch_;
  }
  base_index_.assign(base_.next_id, nullptr);
  indexNodes(base_.root, base_index_);
  return base_;
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
