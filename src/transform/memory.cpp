// Memory-layout transformations: buffer dimension reuse (`:N`), its inverse,
// dimension reordering, padding, and storage-space selection.
#include <algorithm>
#include <optional>

#include "ir/walk.h"
#include "support/common.h"
#include "transform/checked.h"
#include "transform/transform.h"

namespace perfdojo::transform {

using ir::Buffer;
using ir::IndexExpr;
using ir::Node;
using ir::NodeId;
using ir::Operand;
using ir::Program;

namespace {

/// Applies fn to every access (reads and writes) whose array belongs to the
/// given buffer.
template <typename Fn>
void forEachBufferAccess(const Program& p, const Buffer& b, Fn&& fn) {
  auto belongs = [&](const std::string& array) {
    return std::find(b.arrays.begin(), b.arrays.end(), array) != b.arrays.end();
  };
  ir::visit(p.root, [&](const Node& n) {
    if (!n.isOp()) return;
    if (belongs(n.out.array)) fn(n.out);
    for (const auto& in : n.ins)
      if (in.kind == Operand::Kind::Array && belongs(in.access.array))
        fn(in.access);
  });
}

template <typename Fn>
void forEachBufferAccessMut(Program& p, const Buffer& b, Fn&& fn) {
  auto belongs = [&](const std::string& array) {
    return std::find(b.arrays.begin(), b.arrays.end(), array) != b.arrays.end();
  };
  ir::visitMut(p.root, [&](Node& n) {
    if (!n.isOp()) return;
    if (belongs(n.out.array)) fn(n.out);
    for (auto& in : n.ins)
      if (in.kind == Operand::Kind::Array && belongs(in.access.array))
        fn(in.access);
  });
}

bool bufferIsExternal(const Program& p, const Buffer& b) {
  for (const auto& a : b.arrays)
    if (p.isExternal(a)) return true;
  return false;
}

// ---------------------------------------------------------------------------

/// reuse_dims: collapse a buffer dimension's storage. Valid when every access
/// to the buffer uses a *syntactically identical* index expression at that
/// dimension, driven by exactly one iteration scope — the check that rejects
/// the broken bottom path of Figure 5 ("the affected buffer dimension is used
/// in more than one scope").
class ReuseDims final : public CheckedTransform {
 public:
  std::string name() const override { return "reuse_dims"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Buffer* b = p.findBuffer(loc.buffer);
    if (!b || bufferIsExternal(p, *b)) return false;
    if (loc.dim < 0 || loc.dim >= static_cast<int>(b->rank())) return false;
    if (!b->materialized[static_cast<std::size_t>(loc.dim)]) return false;

    std::optional<IndexExpr> common;
    bool all_same = true;
    int accesses = 0;
    forEachBufferAccess(p, *b, [&](const ir::Access& a) {
      ++accesses;
      const IndexExpr& e = a.idx[static_cast<std::size_t>(loc.dim)];
      if (!common) common = e;
      else if (!(*common == e)) all_same = false;
    });
    if (accesses == 0 || !all_same) return false;
    std::vector<NodeId> iters;
    common->collectIters(iters);
    if (iters.size() != 1) return false;
    // The driving scope must execute its iterations sequentially: collapsing
    // a dimension indexed by a parallel / vector / GPU-mapped loop would make
    // concurrent iterations share one storage slot (a data race the purely
    // sequential reference semantics cannot observe).
    const Node* scope = ir::findNode(p.root, iters[0]);
    if (!scope) return false;
    switch (scope->anno) {
      case ir::LoopAnno::None:
      case ir::LoopAnno::Unroll:
      case ir::LoopAnno::Ssr:
      case ir::LoopAnno::Frep:
        return true;
      default:
        return false;
    }
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    // One pass over the indexed ops, classifying every access by (buffer, dim),
    // instead of isApplicable's full-tree rescan per candidate site: the
    // enumeration re-runs on every accepted search move and its predicate is
    // program-wide, making it the hottest findApplicable in the annealing
    // walk. Site order (buffers in declaration order, dims ascending) and the
    // verdict per site are identical to the per-site scan.
    const Program& p = ix.program();
    struct DimState {
      std::optional<IndexExpr> common;
      bool all_same = true;
      int accesses = 0;
    };
    std::vector<std::vector<DimState>> state(p.buffers.size());
    for (std::size_t bi = 0; bi < p.buffers.size(); ++bi)
      state[bi].resize(p.buffers[bi].rank());
    auto note = [&](const ir::AccessRef& a) {
      if (a.buffer == nullptr) return;
      auto& dims = state[static_cast<std::size_t>(a.buffer - p.buffers.data())];
      const std::size_t r = std::min(dims.size(), a.access->idx.size());
      for (std::size_t d = 0; d < r; ++d) {
        DimState& ds = dims[d];
        ++ds.accesses;
        if (!ds.common)
          ds.common = a.access->idx[d];
        else if (ds.all_same && !(*ds.common == a.access->idx[d]))
          ds.all_same = false;
      }
    };
    for (const ir::OpInfo& o : ix.ops(ix.rootId())) {
      note(o.write);
      for (const ir::AccessRef& r : o.reads()) note(r);
    }
    std::vector<Location> out;
    for (std::size_t bi = 0; bi < p.buffers.size(); ++bi) {
      const Buffer& b = p.buffers[bi];
      if (bufferIsExternal(p, b)) continue;
      for (int d = 0; d < static_cast<int>(b.rank()); ++d) {
        if (!b.materialized[static_cast<std::size_t>(d)]) continue;
        const DimState& ds = state[bi][static_cast<std::size_t>(d)];
        if (ds.accesses == 0 || !ds.all_same) continue;
        std::vector<NodeId> iters;
        ds.common->collectIters(iters);
        if (iters.size() != 1) continue;
        const Node* scope = ix.node(iters[0]);
        if (!scope) continue;
        switch (scope->anno) {
          case ir::LoopAnno::None:
          case ir::LoopAnno::Unroll:
          case ir::LoopAnno::Ssr:
          case ir::LoopAnno::Frep:
            break;
          default:
            continue;
        }
        Location loc;
        loc.buffer = b.name;
        loc.dim = d;
        out.push_back(loc);
      }
    }
    return out;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    reportBuffersChanged();  // header-only: the tree is untouched
    q.findBuffer(loc.buffer)->materialized[static_cast<std::size_t>(loc.dim)] = false;
  }
};

/// materialize_dims: inverse of reuse_dims — always semantically valid
/// (strictly more storage), making reuse non-destructive step-by-step.
class MaterializeDims final : public CheckedTransform {
 public:
  std::string name() const override { return "materialize_dims"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Buffer* b = p.findBuffer(loc.buffer);
    if (!b) return false;
    if (loc.dim < 0 || loc.dim >= static_cast<int>(b->rank())) return false;
    return !b->materialized[static_cast<std::size_t>(loc.dim)];
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    const Program& p = ix.program();
    std::vector<Location> out;
    for (const auto& b : p.buffers) {
      for (int d = 0; d < static_cast<int>(b.rank()); ++d) {
        Location loc;
        loc.buffer = b.name;
        loc.dim = d;
        if (isApplicable(p, loc)) out.push_back(loc);
      }
    }
    return out;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    reportBuffersChanged();  // header-only: the tree is untouched
    q.findBuffer(loc.buffer)->materialized[static_cast<std::size_t>(loc.dim)] = true;
  }
};

// ---------------------------------------------------------------------------

/// reorder_dims: permute two dimensions of an internal buffer's layout,
/// rewriting every access. Externals are fixed by the kernel interface.
class ReorderDims final : public CheckedTransform {
 public:
  std::string name() const override { return "reorder_dims"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Buffer* b = p.findBuffer(loc.buffer);
    if (!b || bufferIsExternal(p, *b)) return false;
    const int r = static_cast<int>(b->rank());
    return loc.dim >= 0 && loc.dim2 >= 0 && loc.dim < r && loc.dim2 < r &&
           loc.dim != loc.dim2;
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    const Program& p = ix.program();
    std::vector<Location> out;
    for (const auto& b : p.buffers) {
      for (int i = 0; i < static_cast<int>(b.rank()); ++i) {
        for (int j = i + 1; j < static_cast<int>(b.rank()); ++j) {
          Location loc;
          loc.buffer = b.name;
          loc.dim = i;
          loc.dim2 = j;
          if (isApplicable(p, loc)) out.push_back(loc);
        }
      }
    }
    return out;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // Rewrites accesses wherever the buffer is touched: no useful locality.
    reportWholeTree();
    Buffer* b = q.findBuffer(loc.buffer);
    const auto i = static_cast<std::size_t>(loc.dim);
    const auto j = static_cast<std::size_t>(loc.dim2);
    std::swap(b->shape[i], b->shape[j]);
    // std::vector<bool> proxies do not support std::swap of references.
    const bool mi = b->materialized[i];
    b->materialized[i] = b->materialized[j];
    b->materialized[j] = mi;
    forEachBufferAccessMut(q, *b, [&](ir::Access& a) { std::swap(a.idx[i], a.idx[j]); });
  }
};

// ---------------------------------------------------------------------------

/// pad_dim: enlarge an internal buffer dimension (e.g. to a cache-line or
/// bank multiple). Accesses are untouched — padding only affects layout,
/// never values.
class PadDim final : public CheckedTransform {
 public:
  std::string name() const override { return "pad_dim"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Buffer* b = p.findBuffer(loc.buffer);
    if (!b || bufferIsExternal(p, *b)) return false;
    if (loc.dim < 0 || loc.dim >= static_cast<int>(b->rank())) return false;
    if (!b->materialized[static_cast<std::size_t>(loc.dim)]) return false;
    return loc.param > b->shape[static_cast<std::size_t>(loc.dim)];
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps& caps) const override {
    const Program& p = ix.program();
    std::vector<Location> out;
    const std::int64_t align =
        caps.vector_widths.empty() ? 8 : caps.vector_widths.back();
    for (const auto& b : p.buffers) {
      for (int d = 0; d < static_cast<int>(b.rank()); ++d) {
        const std::int64_t cur = b.shape[static_cast<std::size_t>(d)];
        const std::int64_t padded = (cur + align - 1) / align * align;
        if (padded == cur) continue;
        Location loc;
        loc.buffer = b.name;
        loc.dim = d;
        loc.param = padded;
        if (isApplicable(p, loc)) out.push_back(loc);
      }
    }
    return out;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    reportBuffersChanged();  // header-only: the tree is untouched
    q.findBuffer(loc.buffer)->shape[static_cast<std::size_t>(loc.dim)] = loc.param;
  }
};

// ---------------------------------------------------------------------------

/// set_storage: move an internal buffer between heap / stack / shared /
/// register spaces. Purely a placement decision; the machine models price it.
class SetStorage final : public CheckedTransform {
 public:
  std::string name() const override { return "set_storage"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Buffer* b = p.findBuffer(loc.buffer);
    if (!b || bufferIsExternal(p, *b)) return false;
    if (b->space == loc.space) return false;
    switch (loc.space) {
      case ir::MemSpace::Heap:
        return true;
      case ir::MemSpace::Stack:
        return b->storedElements() <= (1 << 20);
      case ir::MemSpace::Shared:
        return b->storedElements() <= (1 << 14);
      case ir::MemSpace::Register:
        return b->storedElements() <= 64;
    }
    return false;
  }

  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps& caps) const override {
    const Program& p = ix.program();
    std::vector<Location> out;
    std::vector<ir::MemSpace> spaces = {ir::MemSpace::Heap, ir::MemSpace::Stack,
                                        ir::MemSpace::Register};
    if (caps.is_gpu) spaces.push_back(ir::MemSpace::Shared);
    for (const auto& b : p.buffers) {
      for (ir::MemSpace sp : spaces) {
        Location loc;
        loc.buffer = b.name;
        loc.space = sp;
        if (!isApplicable(p, loc)) continue;
        if (sp == ir::MemSpace::Stack &&
            b.storedElements() > caps.max_stack_elements)
          continue;
        if (sp == ir::MemSpace::Register &&
            b.storedElements() > caps.max_register_elements)
          continue;
        out.push_back(loc);
      }
    }
    return out;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    reportBuffersChanged();  // header-only: the tree is untouched
    q.findBuffer(loc.buffer)->space = loc.space;
  }
};

}  // namespace

const Transform& reuseDims() {
  static const ReuseDims t;
  return t;
}
const Transform& materializeDims() {
  static const MaterializeDims t;
  return t;
}
const Transform& reorderDims() {
  static const ReorderDims t;
  return t;
}
const Transform& padDim() {
  static const PadDim t;
  return t;
}
const Transform& setStorage() {
  static const SetStorage t;
  return t;
}

}  // namespace perfdojo::transform
