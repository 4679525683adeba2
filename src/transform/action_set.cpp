#include "transform/action_set.h"

#include <algorithm>
#include <unordered_set>

#include "ir/incremental.h"
#include "support/common.h"

namespace perfdojo::transform {

/// How one transform's applicable sites react to a reported mutation. The
/// soundness argument per field:
///
///   * splice root: sites whose predicate only reads lines inside the dirty
///     subtree are re-enumerated by one scoped findApplicable over it. A
///     transform whose site can change its own id (collapse/interchange) or
///     whose predicate reads sibling lists (join/reorder) widens the root to
///     parent(d) so the re-enumerated subtree covers the sibling level.
///   * recheck_ancestors: predicates that read subtree CONTENT below the
///     site (containsAnno, iterationsIndependent, interchangeLegal,
///     fusionLegal of own children, streamableOp chains) can flip at any
///     proper ancestor of the splice root — those are re-checked one node at
///     a time. Transforms whose predicate requires children[0] to be an op
///     (vectorize, partial_reduce) need no ancestor recheck: no scope — so
///     no dirty root — can exist strictly below an applicable site, and a
///     site outside the dirty subtree keeps a scope descendant (the dirty
///     root survives the mutation), so it cannot gain applicability either.
///   * recheck_prev_siblings: join_scopes reads the NEXT sibling's subtree,
///     so the preceding sibling of every spine node (splice root + its
///     proper ancestors) can flip and is re-checked too.
///   * buffers_full: predicates consulting the buffer header —
///     mayAlias/fusionLegal/interchangeLegal/iterationsIndependent all read
///     bufferOfArray + materializedDims — re-enumerate fully when
///     buffers_changed.
///   * header_only: sites live in the buffer header (loc.buffer, no node);
///     tree dirt never touches them, buffers_changed re-enumerates fully.
///   * always_full: the predicate is program-wide (reuse_dims scans every
///     access AND the driving scope's annotation), or the transform is
///     unknown (fuzzer-injected): re-enumerate fully on every update.
ActionSet::Policy ActionSet::policyFor(const std::string& name) {
  Policy q;
  // Reads only the site's own line (anno/extent): dirt stays in-subtree.
  if (name == "split_scope" || name == "unroll") return q;
  // children[0]-is-op predicates: in-subtree per the argument above.
  if (name == "vectorize") return q;
  if (name == "partial_reduce") {
    q.buffers_full = true;  // mayAlias on the accumulator's operands
    return q;
  }
  // Reads its own and children[0]'s line; the site changes id on apply, so
  // the stable re-enumeration root is the parent level.
  if (name == "collapse_scopes") {
    q.widen_to_parent = true;
    return q;
  }
  if (name == "interchange_scopes") {
    q.widen_to_parent = true;      // both nests swap ids
    q.recheck_ancestors = true;    // interchangeLegal reads the inner nest
    q.buffers_full = true;
    return q;
  }
  if (name == "join_scopes") {
    q.widen_to_parent = true;          // site + next sibling fuse
    q.recheck_ancestors = true;        // fusionLegal reads both subtrees
    q.recheck_prev_siblings = true;    // ps(spine) reads INTO the dirty side
    q.buffers_full = true;
    return q;
  }
  if (name == "fission_scope") {
    q.recheck_ancestors = true;  // fusionLegal over the site's own children
    q.buffers_full = true;
    return q;
  }
  if (name == "reorder_ops") {
    q.widen_to_parent = true;
    q.recheck_ancestors = true;  // pairs at ancestors read child subtrees
    q.buffers_full = true;
    q.owner_is_parent = true;
    return q;
  }
  if (name == "parallelize" || name == "gpu_map_grid" ||
      name == "gpu_map_block" || name == "gpu_map_warp") {
    q.recheck_ancestors = true;  // containsAnno / iterationsIndependent
    q.buffers_full = true;
    return q;
  }
  if (name == "ssr_stream" || name == "frep") {
    q.recheck_ancestors = true;  // streamableOp descends the unrolled chain
    return q;
  }
  if (name == "materialize_dims" || name == "reorder_dims" ||
      name == "pad_dim" || name == "set_storage") {
    q.header_only = true;
    return q;
  }
  // reuse_dims and anything this table has never heard of.
  q.always_full = true;
  return q;
}

void ActionSet::bind(const ir::Program& p, const MachineCaps& caps) {
  bind(p, caps, allTransforms());
}

void ActionSet::bind(const ir::Program& p, const MachineCaps& caps,
                     const std::vector<const Transform*>& transforms) {
  transforms_ = transforms;
  policies_.clear();
  for (const Transform* t : transforms_) policies_.push_back(policyFor(t->name()));
  caps_ = caps;
  ++stats_.binds;
  ir::ProgramIndex ix(p);
  rebuildAll(ix);
  shape_ = ix.releaseShape();
  bound_ = true;
}

void ActionSet::rebuildAll(const ir::ProgramIndex& ix) {
  locs_.assign(transforms_.size(), {});
  for (std::size_t t = 0; t < transforms_.size(); ++t)
    locs_[t] = transforms_[t]->findApplicable(ix, caps_);
  rebuildActions();
}

void ActionSet::rebuildActions() {
  actions_.clear();
  std::size_t total = 0;
  for (const auto& l : locs_) total += l.size();
  actions_.reserve(total);
  for (std::size_t t = 0; t < transforms_.size(); ++t)
    for (const auto& loc : locs_[t]) actions_.push_back({transforms_[t], loc});
}

void ActionSet::update(const ir::Program& p, const ir::MutationSummary& mut) {
  require(bound_, "ActionSet: bind() a program first");
  ++stats_.updates;
  // One index of the new state, shared by every transform below.
  ir::ProgramIndex next(p);
  // Dirty roots must exist in the old state, below the root container, and
  // survive the mutation (the MutationSummary contract); a report naming
  // one that did not is conservative in disguise.
  bool fallback = mut.whole_tree;
  for (ir::NodeId d : mut.dirty_scopes)
    if (!shape_.known(d) || d == shape_.root || !next.known(d)) fallback = true;
  if (fallback) {
    ++stats_.full_rebuilds;
    rebuildAll(next);
  } else {
    for (std::size_t t = 0; t < transforms_.size(); ++t)
      updateTransform(t, next, mut);
    rebuildActions();
  }
  shape_ = next.releaseShape();
}

void ActionSet::updateTransform(std::size_t ti, const ir::ProgramIndex& next,
                                const ir::MutationSummary& mut) {
  const Transform* t = transforms_[ti];
  const Policy& pol = policies_[ti];
  const ir::ProgramIndex::Shape& old = shape_;
  const ir::ProgramIndex::Shape& now = next.shape();
  if (pol.always_full ||
      (mut.buffers_changed && (pol.buffers_full || pol.header_only))) {
    ++stats_.transform_full_enums;
    locs_[ti] = t->findApplicable(next, caps_);
    return;
  }
  if (pol.header_only || mut.dirty_scopes.empty()) return;  // untouched

  // Splice roots, deduped by old-interval containment (nested dirty roots
  // collapse into the outermost; intervals are nested-or-disjoint).
  std::vector<ir::NodeId> roots;
  roots.reserve(mut.dirty_scopes.size());
  for (ir::NodeId d : mut.dirty_scopes)
    roots.push_back(pol.widen_to_parent ? old[d].parent : d);
  std::sort(roots.begin(), roots.end(), [&](ir::NodeId a, ir::NodeId b) {
    return old[a].pre < old[b].pre;
  });
  std::vector<ir::NodeId> kept;
  std::int32_t covered_end = -1;
  for (ir::NodeId r : roots) {
    if (old[r].pre < covered_end) continue;
    kept.push_back(r);
    covered_end = old[r].end;
  }
  if (kept.front() == old.root) {
    // Widening reached the root container: the splice IS the full tree.
    ++stats_.transform_full_enums;
    locs_[ti] = t->findApplicable(next, caps_);
    return;
  }

  // Single-node recheck set: the spine (each splice root + its proper
  // ancestors, root container excluded) filtered per policy. Ancestor
  // chains and sibling lists outside the dirty subtrees are unchanged by
  // the contract, so the post-mutation index describes both sides.
  std::unordered_set<ir::NodeId> recheck;
  if (pol.recheck_ancestors || pol.recheck_prev_siblings) {
    for (ir::NodeId r : kept) {
      for (ir::NodeId x = r; x != ir::kInvalidNode && x != now.root;
           x = now[x].parent) {
        if (x != r && pol.recheck_ancestors) recheck.insert(x);
        if (pol.recheck_prev_siblings && now[x].child > 0)
          recheck.insert(next.parent(x)
                             ->children[static_cast<std::size_t>(now[x].child) - 1]
                             .id);
      }
    }
  }

  // Removal: drop entries whose owner's OLD position lies in a spliced
  // interval (covers nodes the mutation destroyed) or is re-checked.
  auto inKeptOld = [&](std::int32_t pos) {
    for (ir::NodeId r : kept)
      if (pos >= old[r].pre && pos < old[r].end) return true;
    return false;
  };
  std::vector<Location> retained;
  retained.reserve(locs_[ti].size());
  for (auto& loc : locs_[ti]) {
    const ir::NodeId owner = pol.owner_is_parent ? old[loc.node].parent : loc.node;
    if (inKeptOld(old[owner].pre) || recheck.count(owner) != 0) continue;
    retained.push_back(std::move(loc));
  }

  // Fresh enumeration: one scoped walk per splice root, one single-node
  // check per recheck node not already covered by a splice. Keys are the
  // owner's NEW pre-order position (pre-order is the enumeration order of
  // every transform), with the child index as tiebreaker for parent-owned
  // sites; a stable sort keeps each owner's parameter order.
  auto keyOf = [&](const Location& loc) -> std::uint64_t {
    if (pol.owner_is_parent) {
      const ir::NodeId par = now[loc.node].parent;
      return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(now[par].pre))
              << 32) |
             static_cast<std::uint32_t>(now[loc.node].child);
    }
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(now[loc.node].pre))
           << 32;
  };
  auto inKeptNew = [&](ir::NodeId x) {
    for (ir::NodeId r : kept)
      if (next.within(x, r)) return true;
    return false;
  };
  struct Keyed {
    std::uint64_t key;
    Location loc;
  };
  std::vector<Keyed> fresh;
  for (ir::NodeId r : kept) {
    ++stats_.transform_splices;
    for (auto& loc : t->findApplicable(next, caps_, r))
      fresh.push_back({keyOf(loc), std::move(loc)});
  }
  for (ir::NodeId x : recheck) {
    if (inKeptNew(x)) continue;
    ++stats_.nodes_rechecked;
    for (auto& loc : t->findApplicableAt(next, caps_, x))
      fresh.push_back({keyOf(loc), std::move(loc)});
  }
  std::stable_sort(fresh.begin(), fresh.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key < b.key; });

  // Merge by key. An owner's entries are wholly retained or wholly fresh,
  // so equal keys never cross the two streams; retained keys are ascending
  // because clean nodes keep their relative pre-order positions.
  std::vector<Location> merged;
  merged.reserve(retained.size() + fresh.size());
  std::size_t i = 0, j = 0;
  while (i < retained.size() && j < fresh.size()) {
    if (fresh[j].key < keyOf(retained[i]))
      merged.push_back(std::move(fresh[j++].loc));
    else
      merged.push_back(std::move(retained[i++]));
  }
  for (; i < retained.size(); ++i) merged.push_back(std::move(retained[i]));
  for (; j < fresh.size(); ++j) merged.push_back(std::move(fresh[j].loc));
  locs_[ti] = std::move(merged);
}

bool ActionSet::selfCheck(const ir::Program& p, std::string* detail) const {
  if (!bound_) {
    if (detail) *detail = "action set: selfCheck before bind";
    return false;
  }
  const auto fresh = allActions(p, caps_, transforms_);
  if (fresh.size() != actions_.size()) {
    if (detail)
      *detail = "action set: size diverged (maintained " +
                std::to_string(actions_.size()) + " vs fresh " +
                std::to_string(fresh.size()) + ")";
    return false;
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (fresh[i].transform != actions_[i].transform ||
        !(fresh[i].loc == actions_[i].loc)) {
      if (detail)
        *detail = "action set: entry " + std::to_string(i) +
                  " diverged (maintained " + actions_[i].describe(p) +
                  " vs fresh " + fresh[i].describe(p) + ")";
      return false;
    }
  }
  return true;
}

}  // namespace perfdojo::transform
