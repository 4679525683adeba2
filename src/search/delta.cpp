#include "search/delta.h"

#include <utility>

#include "support/common.h"

namespace perfdojo::search {

namespace {

/// Index of `n`'s child with id `id`, trying `hint` first;
/// n.children.size() if there is none.
std::size_t childIndex(const ir::Node& n, ir::NodeId id, std::size_t hint) {
  const auto& c = n.children;
  if (hint < c.size() && c[hint].id == id) return hint;
  std::size_t i = 0;
  while (i < c.size() && c[i].id != id) ++i;
  return i;
}

}  // namespace

void DeltaContext::bind(ir::Program base) {
  pending_ = false;
  base_ = std::move(base);
  scratch_ = base_;
  arena_.bind(base_);
  base_hash_ = arena_.hash();
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
    copyDirty(pending_mut_, base_, scratch_);
  }
  // validate=false skips only the post-mutation Program::validate;
  // applyInPlace still checks isApplicable on this very base.
  a.transform->applyInPlace(scratch_, a.loc, &pending_mut_,
                            /*validate=*/false);
  pending_action_ = a;
  pending_ = true;
  probed_ = false;
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
    probed_ = true;
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
  const bool adopt = in_place && probed_;
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
    // The arena's last probe rendered and hashed this very tree when
    // neighborVisit priced it; otherwise rebase() probes it now.
    if (adopt)
      arena_.adoptProbe(scratch_);
    else
      arena_.rebase(scratch_, pending_mut_);
    // The arena now describes scratch_, the source of the copy.
    copyDirty(pending_mut_, scratch_, base_);
  } catch (...) {
    // Any throw — in the undo, the apply, the arena's rebase or the
    // commit's copy — may leave scratch_ and the canonical form part-way to
    // the new state. base_ is untouched until the copy has located both of
    // its ends, so resynchronize both to it; the context keeps describing
    // the old base, usable.
    resync();
    arena_.bind(base_);
    throw;
  }
  ++stats_.accepts;
  if (in_place) ++stats_.accepts_in_place;
  if (mut_out) *mut_out = pending_mut_;
  base_hash_ = arena_.hash();
  return base_;
}

void DeltaContext::copyDirty(const ir::MutationSummary& mut,
                             const ir::Program& from, ir::Program& to) {
  if (mut.whole_tree) {
    to = from;
    return;
  }
  const ir::Node* src = &from.root;
  ir::Node* dst = &to.root;
  if (mut.dirty != ir::kInvalidNode && mut.dirty != from.root.id) {
    // The arena's parent column gives the dirty root's ancestor chain, which
    // by the MutationSummary contract is the same in both trees: descend
    // them in lockstep, trying each chain node in `to` at its position in
    // `from`.
    const std::int32_t slot = arena_.slotOf(mut.dirty);
    bool found = slot >= 0;
    if (found) {
      arena_.chainOf(static_cast<std::size_t>(slot), chain_buf_);
      chain_buf_.push_back(mut.dirty);
    }
    for (std::size_t k = 0; found && k < chain_buf_.size(); ++k) {
      const std::size_t i = childIndex(*src, chain_buf_[k], 0);
      const std::size_t j = childIndex(*dst, chain_buf_[k], i);
      found = i < src->children.size() && j < dst->children.size();
      if (found) {
        src = &src->children[i];
        dst = &dst->children[j];
      }
    }
    require(found, "DeltaContext: dirty subtree " + std::to_string(mut.dirty) +
                       " missing (bad mutation report)");
  }
  if (mut.buffers_changed) to.buffers = from.buffers;
  to.next_id = from.next_id;  // watermark: ids past it never existed
  if (mut.dirty != ir::kInvalidNode) *dst = *src;
}

}  // namespace perfdojo::search
