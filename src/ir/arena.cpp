#include "ir/arena.h"

#include <algorithm>

#include "ir/canonical.h"
#include "ir/incremental.h"
#include "ir/printer.h"
#include "support/common.h"

namespace perfdojo::ir {

namespace {

bool containsId(const std::vector<NodeId>& ids, NodeId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

void CanonicalArena::bind(const Program& p) {
  id_.clear();
  subtree_end_.clear();
  line_begin_.clear();
  parent_.clear();
  depth_.clear();
  is_scope_.clear();
  anno_.clear();
  extent_.clear();
  text_.clear();
  slot_of_id_.assign(p.next_id, -1);

  // Pre-order flatten, rendering each line straight into the slab. The root
  // container has no line of its own (printTree starts at its children).
  // Recursion depth equals the loop nest depth — single digits for every
  // kernel in the suite.
  std::vector<NodeId> chain;
  auto flatten = [&](auto&& self, const Node& n, std::int32_t parent,
                     int depth) -> void {
    const std::int32_t slot = static_cast<std::int32_t>(id_.size());
    id_.push_back(n.id);
    parent_.push_back(parent);
    depth_.push_back(static_cast<std::uint16_t>(depth));
    is_scope_.push_back(n.isScope() ? 1 : 0);
    anno_.push_back(static_cast<std::uint8_t>(n.anno));
    extent_.push_back(n.extent);
    subtree_end_.push_back(0);  // patched below
    line_begin_.push_back(static_cast<std::uint32_t>(text_.size()));
    if (n.id < slot_of_id_.size()) slot_of_id_[n.id] = slot;
    text_ += printNodeLine(n, depth, chain);
    if (n.isScope()) {
      chain.push_back(n.id);
      for (const auto& c : n.children) self(self, c, slot, depth + 1);
      chain.pop_back();
    }
    subtree_end_[slot] = static_cast<std::uint32_t>(id_.size());
  };
  for (const auto& c : p.root.children) flatten(flatten, c, -1, 0);
  line_begin_.push_back(static_cast<std::uint32_t>(text_.size()));

  header_ = canonicalHeaderText(p);
  std::uint64_t h = fnv1a(header_.data(), header_.size());
  hash_ = fnv1a(text_.data(), text_.size(), h);
  bound_ = true;
}

void CanonicalArena::chainOf(std::size_t slot, std::vector<NodeId>& out) const {
  out.clear();
  for (std::int32_t s = parent_[slot]; s >= 0; s = parent_[s])
    out.push_back(id_[s]);
  std::reverse(out.begin(), out.end());
}

std::uint64_t CanonicalArena::fullRender(const Program& q) const {
  const std::string text = canonicalText(q);
  return fnv1a(text.data(), text.size());
}

namespace {

/// Hashes a freshly rendered post-mutation subtree line by line (the dirty
/// path; rendering dominates, so per-line FNV calls are immaterial here).
void renderFresh(const Node& n, int depth, std::vector<NodeId>& chain,
                 std::uint64_t& h) {
  const std::string line = printNodeLine(n, depth, chain);
  h = fnv1a(line.data(), line.size(), h);
  if (n.isScope()) {
    chain.push_back(n.id);
    for (const auto& c : n.children) renderFresh(c, depth + 1, chain, h);
    chain.pop_back();
  }
}

}  // namespace

void CanonicalArena::rebase(const Program& q, const MutationSummary& mut) {
  if (!bound_ || mut.whole_tree || containsId(mut.dirty_scopes, q.root.id)) {
    bind(q);
    return;
  }
  dirty_slots_.clear();
  for (NodeId id : mut.dirty_scopes) {
    const std::int32_t s = slotOf(id);
    if (s < 0) {
      bind(q);
      return;
    }
    dirty_slots_.push_back(static_cast<std::uint32_t>(s));
  }
  std::sort(dirty_slots_.begin(), dirty_slots_.end());

  // Move the bound arena aside; the walk below reads the old columns while
  // rebuilding the members in place.
  const std::vector<NodeId> old_id = std::move(id_);
  const std::vector<std::uint32_t> old_end = std::move(subtree_end_);
  const std::vector<std::uint32_t> old_lb = std::move(line_begin_);
  const std::vector<std::int32_t> old_parent = std::move(parent_);
  const std::vector<std::uint16_t> old_depth = std::move(depth_);
  const std::vector<std::uint8_t> old_scope = std::move(is_scope_);
  const std::vector<std::uint8_t> old_anno = std::move(anno_);
  const std::vector<std::int64_t> old_extent = std::move(extent_);
  const std::vector<std::int32_t> old_slot = std::move(slot_of_id_);
  const std::string old_text = std::move(text_);
  id_.clear();
  subtree_end_.clear();
  line_begin_.clear();
  parent_.clear();
  depth_.clear();
  is_scope_.clear();
  anno_.clear();
  extent_.clear();
  text_.clear();
  id_.reserve(old_id.size());

  auto oldSlotOf = [&](NodeId id) -> std::int32_t {
    return id < old_slot.size() ? old_slot[id] : -1;
  };
  auto dirtyIn = [&](std::uint32_t begin, std::uint32_t end) {
    auto it = std::lower_bound(dirty_slots_.begin(), dirty_slots_.end(), begin);
    return it != dirty_slots_.end() && *it < end;
  };

  // Bulk-copies a whole clean old subtree [ob, oe): every column entry moves
  // by a constant slot delta, every byte offset by a constant byte delta,
  // and the slab bytes are one append. Both deltas may be negative (an
  // earlier dirty subtree can shrink).
  auto copyBlock = [&](std::uint32_t ob, std::uint32_t oe,
                       std::int32_t parent) {
    const std::int32_t slot_delta =
        static_cast<std::int32_t>(id_.size()) - static_cast<std::int32_t>(ob);
    const std::int64_t byte_delta = static_cast<std::int64_t>(text_.size()) -
                                    static_cast<std::int64_t>(old_lb[ob]);
    for (std::uint32_t s = ob; s < oe; ++s) {
      id_.push_back(old_id[s]);
      parent_.push_back(s == ob ? parent : old_parent[s] + slot_delta);
      depth_.push_back(old_depth[s]);
      is_scope_.push_back(old_scope[s]);
      anno_.push_back(old_anno[s]);
      extent_.push_back(old_extent[s]);
      subtree_end_.push_back(
          static_cast<std::uint32_t>(old_end[s] + slot_delta));
      line_begin_.push_back(
          static_cast<std::uint32_t>(old_lb[s] + byte_delta));
    }
    text_.append(old_text, old_lb[ob], old_lb[oe] - old_lb[ob]);
  };

  chain_buf_.clear();
  // Renders a dirty (or newly created) subtree exactly like bind()'s
  // flatten.
  auto fresh = [&](auto&& self, const Node& n, std::int32_t parent,
                   int depth) -> void {
    const std::int32_t slot = static_cast<std::int32_t>(id_.size());
    id_.push_back(n.id);
    parent_.push_back(parent);
    depth_.push_back(static_cast<std::uint16_t>(depth));
    is_scope_.push_back(n.isScope() ? 1 : 0);
    anno_.push_back(static_cast<std::uint8_t>(n.anno));
    extent_.push_back(n.extent);
    subtree_end_.push_back(0);
    line_begin_.push_back(static_cast<std::uint32_t>(text_.size()));
    text_ += printNodeLine(n, depth, chain_buf_);
    if (n.isScope()) {
      chain_buf_.push_back(n.id);
      for (const auto& c : n.children) self(self, c, slot, depth + 1);
      chain_buf_.pop_back();
    }
    subtree_end_[slot] = static_cast<std::uint32_t>(id_.size());
  };
  auto walk = [&](auto&& self, const Node& n, std::int32_t parent,
                  int depth) -> void {
    if (containsId(mut.dirty_scopes, n.id)) {
      fresh(fresh, n, parent, depth);
      return;
    }
    const std::int32_t os = oldSlotOf(n.id);
    if (os >= 0 && !dirtyIn(static_cast<std::uint32_t>(os), old_end[os])) {
      copyBlock(static_cast<std::uint32_t>(os), old_end[os], parent);
      return;
    }
    // Spine node (own line clean, dirt strictly below) or a clean node the
    // base never had (inadequate report — render it, stay byte-correct).
    const std::int32_t slot = static_cast<std::int32_t>(id_.size());
    id_.push_back(n.id);
    parent_.push_back(parent);
    depth_.push_back(static_cast<std::uint16_t>(depth));
    is_scope_.push_back(n.isScope() ? 1 : 0);
    anno_.push_back(static_cast<std::uint8_t>(n.anno));
    extent_.push_back(n.extent);
    subtree_end_.push_back(0);
    line_begin_.push_back(static_cast<std::uint32_t>(text_.size()));
    if (os >= 0)
      text_.append(old_text, old_lb[os], old_lb[os + 1] - old_lb[os]);
    else
      text_ += printNodeLine(n, depth, chain_buf_);
    if (n.isScope()) {
      chain_buf_.push_back(n.id);
      for (const auto& c : n.children) self(self, c, slot, depth + 1);
      chain_buf_.pop_back();
    }
    subtree_end_[slot] = static_cast<std::uint32_t>(id_.size());
  };
  for (const auto& c : q.root.children) walk(walk, c, -1, 0);
  line_begin_.push_back(static_cast<std::uint32_t>(text_.size()));

  slot_of_id_.assign(q.next_id, -1);
  for (std::size_t s = 0; s < id_.size(); ++s)
    if (id_[s] < slot_of_id_.size())
      slot_of_id_[id_[s]] = static_cast<std::int32_t>(s);

  if (mut.buffers_changed) header_ = canonicalHeaderText(q);
  std::uint64_t h = fnv1a(header_.data(), header_.size());
  hash_ = fnv1a(text_.data(), text_.size(), h);
  bound_ = true;
}

std::uint64_t CanonicalArena::probe(const Program& q,
                                    const MutationSummary& mut) const {
  if (!bound_ || mut.whole_tree || containsId(mut.dirty_scopes, q.root.id))
    return fullRender(q);

  // Resolve the dirty roots to base slots once; a report naming a node the
  // base never had violates the MutationSummary contract, and the only
  // always-correct answer is a full render.
  dirty_slots_.clear();
  for (NodeId id : mut.dirty_scopes) {
    const std::int32_t s = slotOf(id);
    if (s < 0) return fullRender(q);
    dirty_slots_.push_back(static_cast<std::uint32_t>(s));
  }
  std::sort(dirty_slots_.begin(), dirty_slots_.end());

  std::uint64_t h;
  if (mut.buffers_changed) {
    const std::string header = canonicalHeaderText(q);
    h = fnv1a(header.data(), header.size());
  } else {
    h = fnv1a(header_.data(), header_.size());
  }

  // The splice walk. Clean slab bytes accumulate into [run_begin, run_end)
  // and are hashed in one FNV call per maximal contiguous run; runs break
  // only at dirty subtrees (whose rendered bytes replace the base bytes).
  std::uint32_t run_begin = 0, run_end = 0;
  auto flush = [&] {
    if (run_end > run_begin)
      h = fnv1a(text_.data() + run_begin, run_end - run_begin, h);
    run_begin = run_end = 0;
  };
  auto extend = [&](std::uint32_t b, std::uint32_t e) {
    if (run_end == run_begin) {
      run_begin = b;
      run_end = e;
    } else if (b == run_end) {
      run_end = e;
    } else {
      flush();
      run_begin = b;
      run_end = e;
    }
  };
  // True iff any dirty root's slot lies inside the half-open slot interval.
  auto dirtyIn = [&](std::uint32_t begin, std::uint32_t end) {
    auto it = std::lower_bound(dirty_slots_.begin(), dirty_slots_.end(), begin);
    return it != dirty_slots_.end() && *it < end;
  };

  chain_buf_.clear();
  auto walk = [&](auto&& self, const Node& n, int depth) -> void {
    if (containsId(mut.dirty_scopes, n.id)) {
      // Dirty root: the base bytes of this subtree are replaced by a fresh
      // render of the post-mutation subtree.
      flush();
      renderFresh(n, depth, chain_buf_, h);
      return;
    }
    const std::int32_t slot = slotOf(n.id);
    if (slot < 0) {
      // A clean node the base never had — outside the reported subtrees, so
      // the report is inadequate; render it fresh (always byte-correct) and
      // keep going.
      flush();
      const std::string line = printNodeLine(n, depth, chain_buf_);
      h = fnv1a(line.data(), line.size(), h);
      if (n.isScope()) {
        chain_buf_.push_back(n.id);
        for (const auto& c : n.children) self(self, c, depth + 1);
        chain_buf_.pop_back();
      }
      return;
    }
    const std::uint32_t end = subtree_end_[slot];
    if (!dirtyIn(static_cast<std::uint32_t>(slot), end)) {
      // Clean subtree with no dirty root inside: by the MutationSummary
      // contract nothing in it was created, destroyed, moved or re-rendered,
      // so its slab bytes are the post-mutation bytes verbatim. One interval
      // extension covers the whole subtree — no descent.
      extend(line_begin_[slot], line_begin_[end]);
      return;
    }
    // Own line clean, dirt strictly below: splice the line, descend.
    extend(line_begin_[slot], line_begin_[slot + 1]);
    chain_buf_.push_back(n.id);
    for (const auto& c : n.children) self(self, c, depth + 1);
    chain_buf_.pop_back();
  };
  for (const auto& c : q.root.children) walk(walk, c, 0);
  flush();
  return h;
}

}  // namespace perfdojo::ir
