#include "ir/arena.h"

#include <algorithm>

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
                                           int d, std::uint32_t line) {
  const std::int32_t slot = static_cast<std::int32_t>(id.size());
  id.push_back(n.id);
  parent.push_back(p);
  depth.push_back(static_cast<std::uint16_t>(d));
  is_scope.push_back(n.isScope() ? 1 : 0);
  anno.push_back(static_cast<std::uint8_t>(n.anno));
  extent.push_back(n.extent);
  subtree_end.push_back(0);
  line_begin.push_back(line);
  return slot;
}

void CanonicalArena::Columns::finish(NodeId next_id) {
  line_begin.push_back(static_cast<std::uint32_t>(text.size()));
  slot_of_id.assign(next_id, -1);
  for (std::size_t s = 0; s < id.size(); ++s)
    if (id[s] < slot_of_id.size())
      slot_of_id[id[s]] = static_cast<std::int32_t>(s);
}

void CanonicalArena::bind(const Program& p) {
  // A whole-tree report renders in full, so the commit builds every column
  // from that render.
  rebase(p, MutationSummary::conservative());
}

void CanonicalArena::rebase(const Program& q, const MutationSummary& mut) {
  try {
    probe(q, mut);
  } catch (...) {
    // A tree that does not render must not stay claimed by the old columns.
    bound_ = false;
    throw;
  }
  adoptProbe(q);
}

void CanonicalArena::chainOf(std::size_t slot, std::vector<NodeId>& out) const {
  out.clear();
  for (std::int32_t s = cols_.parent[slot]; s >= 0; s = cols_.parent[s])
    out.push_back(cols_.id[s]);
  std::reverse(out.begin(), out.end());
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

void CanonicalArena::renderSubtree(const Node& n, int depth) const {
  line_starts_.push_back(static_cast<std::uint32_t>(render_buf_.size()));
  appendNodeLine(render_buf_, n, depth, chain_buf_);
  if (n.isScope()) {
    chain_buf_.push_back(n.id);
    for (const auto& c : n.children) renderSubtree(c, depth + 1);
    chain_buf_.pop_back();
  }
}

void CanonicalArena::renderHeader(const Program& q) const {
  header_buf_.clear();
  appendHeader(header_buf_, q, /*sort_buffers=*/true, order_buf_);
}

std::uint64_t CanonicalArena::renderAll(const Program& q) const {
  renderHeader(q);
  render_buf_.clear();
  line_starts_.clear();
  chain_buf_.clear();
  // The root container has no line of its own (printTree starts at its
  // children). Recursion depth equals the loop nest depth — single digits
  // for every kernel in the suite.
  for (const auto& c : q.root.children) renderSubtree(c, 0);
  return fnv1a(render_buf_.data(), render_buf_.size(),
               fnv1a(header_buf_.data(), header_buf_.size()));
}

bool CanonicalArena::splice(const Program& q, const MutationSummary& mut,
                            std::int32_t dirty, std::uint64_t& h) const {
  render_buf_.clear();
  line_starts_.clear();
  chain_buf_.clear();
  if (mut.buffers_changed) {
    renderHeader(q);
    h = fnv1a(header_buf_.data(), header_buf_.size());
  } else {
    h = fnv1a(header_.data(), header_.size());
  }

  // The splice walk. Clean slab bytes accumulate into [run_begin, run_end)
  // and are hashed in one FNV call per maximal contiguous run; runs break
  // only at the dirty subtree (whose rendered bytes replace the base bytes).
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

  bool adequate = true;
  auto walk = [&](auto&& self, const Node& n, int depth) -> void {
    if (!adequate) return;
    const std::int32_t slot = slotOf(n.id);
    if (slot < 0) {
      // A clean node the base never had — outside the reported subtree, so
      // the report is inadequate. Only a full render is correct, and only
      // one kept render can be adopted.
      adequate = false;
      return;
    }
    if (slot == dirty) {
      // Dirty root: the base bytes of this subtree are replaced by a fresh
      // render of the post-mutation subtree.
      flush();
      renderSubtree(n, depth);
      h = fnv1a(render_buf_.data(), render_buf_.size(), h);
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
  return adequate;
}

std::uint64_t CanonicalArena::probe(const Program& q,
                                    const MutationSummary& mut) const {
  probed_.ready = false;
  std::int32_t dirty = dirtySlot(q, mut);
  std::uint64_t h = 0;
  if (dirty == kRenderAll || !splice(q, mut, dirty, h)) {
    dirty = kRenderAll;
    h = renderAll(q);
  }
  probed_.dirty = dirty;
  probed_.header = dirty == kRenderAll || mut.buffers_changed;
  probed_.hash = h;
  probed_.ready = true;
  return h;
}

void CanonicalArena::adoptProbe(const Program& q) {
  require(probed_.ready, "CanonicalArena: no probe to adopt");
  probed_.ready = false;
  const std::int32_t dirty = probed_.dirty;

  // The bound columns become the read-only `old` side of the walk below,
  // which rebuilds cols_ in the spare storage of the previous commit.
  std::swap(cols_, spare_);
  const Columns& old = spare_;
  bound_ = false;
  cols_.clear();
  auto fits = [](bool ok) {
    require(ok, "CanonicalArena: adopted program is not the probed one");
  };

  // The column entries of a rendered subtree, whose lines are the probe's
  // from line `line` on, with render_buf_ placed at byte `render_at` of the
  // slab.
  std::size_t line = 0;
  std::uint32_t render_at = 0;
  auto pushRendered = [&](auto&& self, const Node& n, std::int32_t parent,
                          int depth) -> void {
    fits(line < line_starts_.size());
    const std::int32_t slot =
        cols_.push(n, parent, depth, render_at + line_starts_[line++]);
    for (const auto& c : n.children) self(self, c, slot, depth + 1);
    cols_.subtree_end[slot] = static_cast<std::uint32_t>(cols_.id.size());
  };

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

  // The probe's splice walk again, writing what it hashed.
  auto walk = [&](auto&& self, const Node& n, std::int32_t parent,
                  int depth) -> void {
    const std::int32_t os = old.slotOf(n.id);
    fits(os >= 0);
    if (os == dirty) {
      render_at = static_cast<std::uint32_t>(cols_.text.size());
      cols_.text.append(render_buf_);
      pushRendered(pushRendered, n, parent, depth);
      return;
    }
    if (!old.encloses(os, dirty)) {
      copyBlock(static_cast<std::uint32_t>(os), old.subtree_end[os], parent);
      return;
    }
    // Spine node: own line clean, dirt strictly below.
    const std::int32_t slot = cols_.push(
        n, parent, depth, static_cast<std::uint32_t>(cols_.text.size()));
    cols_.text.append(old.text, old.line_begin[os],
                      old.line_begin[os + 1] - old.line_begin[os]);
    for (const auto& c : n.children) self(self, c, slot, depth + 1);
    cols_.subtree_end[slot] = static_cast<std::uint32_t>(cols_.id.size());
  };

  if (dirty == kRenderAll) {
    cols_.text.append(render_buf_);
    for (const auto& c : q.root.children)
      pushRendered(pushRendered, c, -1, 0);
  } else {
    for (const auto& c : q.root.children) walk(walk, c, -1, 0);
  }
  fits(line == line_starts_.size());
  cols_.finish(q.next_id);
  if (probed_.header) header_.swap(header_buf_);
  hash_ = probed_.hash;
  bound_ = true;
}

}  // namespace perfdojo::ir
