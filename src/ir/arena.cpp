#include "ir/arena.h"

#include <algorithm>

#include "ir/canonical.h"
#include "ir/incremental.h"
#include "ir/printer.h"
#include "support/common.h"

namespace perfdojo::ir {

namespace {

template <typename T>
void appendRange(std::vector<T>& dst, const std::vector<T>& src,
                 std::size_t begin, std::size_t end) {
  dst.insert(dst.end(), src.begin() + begin, src.begin() + end);
}

}  // namespace

void CanonicalArena::Columns::clear() {
  id.clear();
  subtree_end.clear();
  line_begin.clear();
  parent.clear();
  depth.clear();
  is_scope.clear();
  anno.clear();
  extent.clear();
  text.clear();
}

std::int32_t CanonicalArena::Columns::push(const Node& n, std::int32_t p,
                                           int d) {
  const std::int32_t slot = static_cast<std::int32_t>(id.size());
  id.push_back(n.id);
  parent.push_back(p);
  depth.push_back(static_cast<std::uint16_t>(d));
  is_scope.push_back(n.isScope() ? 1 : 0);
  anno.push_back(static_cast<std::uint8_t>(n.anno));
  extent.push_back(n.extent);
  subtree_end.push_back(0);
  line_begin.push_back(static_cast<std::uint32_t>(text.size()));
  return slot;
}

void CanonicalArena::Columns::finish(NodeId next_id) {
  line_begin.push_back(static_cast<std::uint32_t>(text.size()));
  slot_of_id.assign(next_id, -1);
  for (std::size_t s = 0; s < id.size(); ++s)
    if (id[s] < slot_of_id.size())
      slot_of_id[id[s]] = static_cast<std::int32_t>(s);
}

void CanonicalArena::flatten(const Node& n, std::int32_t parent, int depth) {
  const std::int32_t slot = cols_.push(n, parent, depth);
  appendNodeLine(cols_.text, n, depth, chain_buf_);
  if (n.isScope()) {
    chain_buf_.push_back(n.id);
    for (const auto& c : n.children) flatten(c, slot, depth + 1);
    chain_buf_.pop_back();
  }
  cols_.subtree_end[slot] = static_cast<std::uint32_t>(cols_.id.size());
}

void CanonicalArena::rehash() {
  hash_ = fnv1a(cols_.text.data(), cols_.text.size(),
                fnv1a(header_.data(), header_.size()));
}

void CanonicalArena::bind(const Program& p) {
  // Unbound until every line rendered: a throw below must not leave the
  // arena claiming the previous program.
  bound_ = false;
  cols_.clear();
  chain_buf_.clear();
  // Pre-order flatten. The root container has no line of its own (printTree
  // starts at its children). Recursion depth equals the loop nest depth —
  // single digits for every kernel in the suite.
  for (const auto& c : p.root.children) flatten(c, -1, 0);
  cols_.finish(p.next_id);
  header_ = canonicalHeaderText(p);
  rehash();
  bound_ = true;
}

void CanonicalArena::chainOf(std::size_t slot, std::vector<NodeId>& out) const {
  out.clear();
  for (std::int32_t s = cols_.parent[slot]; s >= 0; s = cols_.parent[s])
    out.push_back(cols_.id[s]);
  std::reverse(out.begin(), out.end());
}

std::uint64_t CanonicalArena::fullRender(const Program& q) const {
  const std::string text = canonicalText(q);
  return fnv1a(text.data(), text.size());
}

std::int32_t CanonicalArena::dirtySlot(const Program& q,
                                       const MutationSummary& mut) const {
  if (!bound_ || mut.whole_tree || mut.dirty == q.root.id) return kRenderAll;
  if (mut.dirty == kInvalidNode) return kCleanTree;
  // A report naming a node the base never had violates the MutationSummary
  // contract; the only always-correct answer is a full render.
  const std::int32_t s = slotOf(mut.dirty);
  return s < 0 ? kRenderAll : s;
}

void CanonicalArena::rebase(const Program& q, const MutationSummary& mut) {
  const std::int32_t dirty = dirtySlot(q, mut);
  if (dirty == kRenderAll) {
    bind(q);
    return;
  }

  // The bound columns become the read-only `old` side of the walk below,
  // which rebuilds cols_ in the spare storage of the previous rebase.
  std::swap(cols_, spare_);
  const Columns& old = spare_;
  bound_ = false;
  cols_.clear();
  chain_buf_.clear();

  // Bulk-copies a whole clean old subtree [ob, oe): every column entry moves
  // by a constant slot delta, every byte offset by a constant byte delta,
  // and the slab bytes are one append. Both deltas may be negative (an
  // earlier dirty subtree can shrink).
  auto copyBlock = [&](std::uint32_t ob, std::uint32_t oe,
                       std::int32_t parent) {
    const std::int32_t slot_delta = static_cast<std::int32_t>(cols_.id.size()) -
                                    static_cast<std::int32_t>(ob);
    const std::int64_t byte_delta =
        static_cast<std::int64_t>(cols_.text.size()) -
        static_cast<std::int64_t>(old.line_begin[ob]);
    appendRange(cols_.id, old.id, ob, oe);
    appendRange(cols_.depth, old.depth, ob, oe);
    appendRange(cols_.is_scope, old.is_scope, ob, oe);
    appendRange(cols_.anno, old.anno, ob, oe);
    appendRange(cols_.extent, old.extent, ob, oe);
    const std::size_t at = cols_.parent.size();
    cols_.parent.resize(at + (oe - ob));
    cols_.subtree_end.resize(at + (oe - ob));
    cols_.line_begin.resize(at + (oe - ob));
    std::int32_t* parent_out = cols_.parent.data() + at;
    std::uint32_t* end_out = cols_.subtree_end.data() + at;
    std::uint32_t* line_out = cols_.line_begin.data() + at;
    for (std::uint32_t s = ob; s < oe; ++s) {
      *parent_out++ = old.parent[s] + slot_delta;
      *end_out++ = static_cast<std::uint32_t>(old.subtree_end[s] + slot_delta);
      *line_out++ = static_cast<std::uint32_t>(old.line_begin[s] + byte_delta);
    }
    cols_.parent[at] = parent;
    cols_.text.append(old.text, old.line_begin[ob],
                      old.line_begin[oe] - old.line_begin[ob]);
  };

  auto walk = [&](auto&& self, const Node& n, std::int32_t parent,
                  int depth) -> void {
    const std::int32_t os = old.slotOf(n.id);
    if (os == dirty) {
      flatten(n, parent, depth);
      return;
    }
    if (os >= 0 && !old.encloses(os, dirty)) {
      copyBlock(static_cast<std::uint32_t>(os), old.subtree_end[os], parent);
      return;
    }
    // Spine node (own line clean, dirt strictly below) or a clean node the
    // base never had (inadequate report — render it, stay byte-correct).
    const std::int32_t slot = cols_.push(n, parent, depth);
    if (os >= 0)
      cols_.text.append(old.text, old.line_begin[os],
                        old.line_begin[os + 1] - old.line_begin[os]);
    else
      appendNodeLine(cols_.text, n, depth, chain_buf_);
    if (n.isScope()) {
      chain_buf_.push_back(n.id);
      for (const auto& c : n.children) self(self, c, slot, depth + 1);
      chain_buf_.pop_back();
    }
    cols_.subtree_end[slot] = static_cast<std::uint32_t>(cols_.id.size());
  };
  for (const auto& c : q.root.children) walk(walk, c, -1, 0);
  cols_.finish(q.next_id);

  if (mut.buffers_changed) header_ = canonicalHeaderText(q);
  rehash();
  bound_ = true;
}

std::uint64_t CanonicalArena::probe(const Program& q,
                                    const MutationSummary& mut) const {
  const std::int32_t dirty = dirtySlot(q, mut);
  if (dirty == kRenderAll) return fullRender(q);

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
  const std::string& text = cols_.text;
  const auto& line_begin = cols_.line_begin;
  std::uint32_t run_begin = 0, run_end = 0;
  auto flush = [&] {
    if (run_end > run_begin)
      h = fnv1a(text.data() + run_begin, run_end - run_begin, h);
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
  auto hashRendered = [&] {
    h = fnv1a(render_buf_.data(), render_buf_.size(), h);
  };

  chain_buf_.clear();
  auto walk = [&](auto&& self, const Node& n, int depth) -> void {
    const std::int32_t slot = slotOf(n.id);
    if (slot == dirty) {
      // Dirty root: the base bytes of this subtree are replaced by a fresh
      // render of the post-mutation subtree.
      flush();
      render_buf_.clear();
      appendSubtree(render_buf_, n, depth, chain_buf_);
      hashRendered();
      return;
    }
    if (slot < 0) {
      // A clean node the base never had — outside the reported subtrees, so
      // the report is inadequate; render it fresh (always byte-correct) and
      // keep going.
      flush();
      render_buf_.clear();
      appendNodeLine(render_buf_, n, depth, chain_buf_);
      hashRendered();
      if (n.isScope()) {
        chain_buf_.push_back(n.id);
        for (const auto& c : n.children) self(self, c, depth + 1);
        chain_buf_.pop_back();
      }
      return;
    }
    if (!cols_.encloses(slot, dirty)) {
      // Clean subtree with no dirty root inside: by the MutationSummary
      // contract nothing in it was created, destroyed, moved or re-rendered,
      // so its slab bytes are the post-mutation bytes verbatim. One interval
      // extension covers the whole subtree — no descent.
      extend(line_begin[slot], line_begin[cols_.subtree_end[slot]]);
      return;
    }
    // Own line clean, dirt strictly below: splice the line, descend.
    extend(line_begin[slot], line_begin[slot + 1]);
    chain_buf_.push_back(n.id);
    for (const auto& c : n.children) self(self, c, depth + 1);
    chain_buf_.pop_back();
  };
  for (const auto& c : q.root.children) walk(walk, c, 0);
  flush();
  return h;
}

}  // namespace perfdojo::ir
