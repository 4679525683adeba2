// Annotation transformations: unroll, vectorize, parallelize, GPU mapping,
// and the Snitch SSR/FREP extensions. Annotations never change observable
// semantics (the interpreter ignores them); their applicability checks
// guarantee the *hardware* interpretation is also faithful (e.g. a
// parallelized scope really has independent iterations).
#include <algorithm>

#include "ir/walk.h"
#include "support/common.h"
#include "transform/checked.h"
#include "transform/deps.h"
#include "transform/transform.h"

namespace perfdojo::transform {

using ir::AnnoMask;
using ir::annoBit;
using ir::LoopAnno;
using ir::Node;
using ir::NodeId;
using ir::Operand;
using ir::Program;

namespace {

class SetAnnoBase : public ScopeSiteTransform {
 public:
  // All annotation transforms enumerate the same way — every scope passing a
  // per-scope predicate, on caps passing a gate — so subclasses only
  // override capsGate/okWithCaps. The gate is asked once per state.
  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps& caps) const final {
    if (!capsGate(caps)) return {};
    return scopeSites(ix, [&](const Node& s, std::vector<Location>& out) {
      if (okWithCaps(ix, caps, s)) out.push_back(at(s.id));
    });
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // Only the scope's own line (the anno suffix) changes.
    reportDirtySubtree(loc.node);
    ir::findNode(q.root, loc.node)->anno = target();
  }
  virtual LoopAnno target() const = 0;
  /// Machine-level gate: false means this transform offers nothing at all on
  /// these caps.
  virtual bool capsGate(const MachineCaps&) const { return true; }
  /// Predicate on an enumerated scope, including caps-dependent parameter
  /// limits.
  virtual bool okWithCaps(const ir::ProgramIndex& ix, const MachineCaps& caps,
                          const Node& s) const = 0;
};

/// Annotation transforms whose predicate reads only the scope's subtree:
/// isApplicable finds the scope by a walk, enumeration takes it from the
/// index, and both ask the same predicate.
class LocalAnnoBase : public SetAnnoBase {
 public:
  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc);
    return s != nullptr && legal(*s);
  }

 protected:
  virtual bool legal(const Node& s) const = 0;
  bool okWithCaps(const ir::ProgramIndex&, const MachineCaps&,
                  const Node& s) const override {
    return legal(s);
  }
};

/// Annotation transforms whose predicate needs more of the program than the
/// scope's own subtree (enclosing annotations, resolved buffers): one
/// predicate over the index serves both isApplicable and the enumeration.
class IndexedAnnoBase : public SetAnnoBase {
 public:
  bool isApplicable(const Program& p, const Location& loc) const override {
    const ir::ProgramIndex ix(p);
    const Node* s = ix.scope(loc.node);
    return s != nullptr && legal(ix, *s);
  }

 protected:
  virtual bool legal(const ir::ProgramIndex& ix, const Node& s) const = 0;
  bool okWithCaps(const ir::ProgramIndex& ix, const MachineCaps&,
                  const Node& s) const override {
    return legal(ix, s);
  }
};

// ---------------------------------------------------------------------------

class Unroll final : public LocalAnnoBase {
 public:
  std::string name() const override { return "unroll"; }

 protected:
  bool legal(const Node& s) const override {
    // Hard sanity bound; caps tighten in enumeration.
    return s.anno == LoopAnno::None && s.extent <= 64;
  }
  bool okWithCaps(const ir::ProgramIndex&, const MachineCaps& caps,
                  const Node& s) const override {
    return legal(s) && s.extent <= caps.max_unroll;
  }
  LoopAnno target() const override { return LoopAnno::Unroll; }
};

// ---------------------------------------------------------------------------

/// A scope is vectorizable when it wraps exactly one operation whose every
/// array access either ignores the scope's iterator or is contiguous in it
/// (coefficient 1 in the innermost index dimension only). This is the
/// paper's decomposition: tiling to the vector width must be applied first,
/// after which vectorization is a single atomic, checkable step.
bool vectorizableBody(const Node& s) {
  if (s.children.size() != 1 || !s.children[0].isOp()) return false;
  const Node& op = s.children[0];
  auto accessOk = [&](const ir::Access& a) {
    bool used = false;
    for (std::size_t i = 0; i < a.idx.size(); ++i) {
      if (!a.idx[i].usesIter(s.id)) continue;
      if (i != a.idx.size() - 1) return false;  // non-innermost dimension
      std::int64_t coef = 0;
      if (!a.idx[i].affineCoef(s.id, coef) || coef != 1) return false;
      used = true;
    }
    (void)used;
    return true;
  };
  // The output must vary with the lane iterator (lanes writing one element
  // would race; vector reductions need horizontal intrinsics we do not
  // model). Inputs may broadcast.
  if (!op.out.usesIter(s.id)) return false;
  if (!accessOk(op.out)) return false;
  for (const auto& in : op.ins) {
    if (in.kind == Operand::Kind::Array && !accessOk(in.access)) return false;
    if (in.kind == Operand::Kind::Iter && in.iter_expr.usesIter(s.id))
      return false;  // lane-varying scalar operand unsupported
  }
  return true;
}

class Vectorize final : public LocalAnnoBase {
 public:
  std::string name() const override { return "vectorize"; }

 protected:
  bool legal(const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    static const std::int64_t common_widths[] = {2, 4, 8, 16, 32, 64};
    if (std::find(std::begin(common_widths), std::end(common_widths),
                  s.extent) == std::end(common_widths))
      return false;
    return vectorizableBody(s);
  }
  bool okWithCaps(const ir::ProgramIndex&, const MachineCaps& caps,
                  const Node& s) const override {
    return legal(s) &&
           std::find(caps.vector_widths.begin(), caps.vector_widths.end(),
                     s.extent) != caps.vector_widths.end();
  }
  LoopAnno target() const override { return LoopAnno::Vector; }
};

// ---------------------------------------------------------------------------

class Parallelize final : public IndexedAnnoBase {
 public:
  std::string name() const override { return "parallelize"; }

 protected:
  bool legal(const ir::ProgramIndex& ix, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    // One level of CPU parallelism: not nested under or above another :p.
    const AnnoMask par = annoBit(LoopAnno::Parallel);
    if (ix.nestedUnder(s.id, par) || ix.subtreeHas(s.id, par)) return false;
    return iterationsIndependent(ix.ops(s.id), s.id);
  }
  bool capsGate(const MachineCaps& caps) const override {
    return caps.has_parallel && !caps.is_gpu;
  }
  LoopAnno target() const override { return LoopAnno::Parallel; }
};

// ---------------------------------------------------------------------------

class GpuMapGrid final : public IndexedAnnoBase {
 public:
  std::string name() const override { return "gpu_map_grid"; }

 protected:
  bool legal(const ir::ProgramIndex& ix, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    // Multi-dimensional grids nest :g under :g; thread-level scopes may not
    // spawn grids.
    if (ix.nestedUnder(s.id, annoBit(LoopAnno::GpuBlock) |
                                 annoBit(LoopAnno::GpuWarp)))
      return false;
    return iterationsIndependent(ix.ops(s.id), s.id);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.is_gpu; }
  LoopAnno target() const override { return LoopAnno::GpuGrid; }
};

class GpuMapBlock final : public IndexedAnnoBase {
 public:
  std::string name() const override { return "gpu_map_block"; }

 protected:
  bool legal(const ir::ProgramIndex& ix, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    // Block scopes nest inside the grid mapping.
    if (!ix.nestedUnder(s.id, annoBit(LoopAnno::GpuGrid))) return false;
    if (ix.nestedUnder(s.id, annoBit(LoopAnno::GpuWarp))) return false;
    if (s.extent > 1024) return false;
    return iterationsIndependent(ix.ops(s.id), s.id);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.is_gpu; }
  bool okWithCaps(const ir::ProgramIndex& ix, const MachineCaps& caps,
                  const Node& s) const override {
    return legal(ix, s) && s.extent <= caps.max_block_threads;
  }
  LoopAnno target() const override { return LoopAnno::GpuBlock; }
};

class GpuMapWarp final : public IndexedAnnoBase {
 public:
  std::string name() const override { return "gpu_map_warp"; }

 protected:
  bool legal(const ir::ProgramIndex& ix, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    if (!ix.nestedUnder(s.id, annoBit(LoopAnno::GpuBlock))) return false;
    if (s.extent > 64) return false;  // at most one wavefront of lanes
    return iterationsIndependent(ix.ops(s.id), s.id);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.is_gpu; }
  bool okWithCaps(const ir::ProgramIndex& ix, const MachineCaps& caps,
                  const Node& s) const override {
    return legal(ix, s) && s.extent <= caps.warp_size;
  }
  LoopAnno target() const override { return LoopAnno::GpuWarp; }
};

// ---------------------------------------------------------------------------

/// Resolves a scope body that is a chain of fully-unrolled single-child
/// scopes ending in exactly one op (the shape SSR/FREP stream over: the
/// unrolled block becomes the repeated FP instruction sequence). Returns the
/// op, or nullptr if the body has any other shape.
const Node* streamableOp(const Node& s) {
  const Node* cur = &s;
  while (true) {
    if (cur->children.size() != 1) return nullptr;
    const Node& c = cur->children[0];
    if (c.isOp()) return &c;
    if (c.anno != LoopAnno::Unroll) return nullptr;
    cur = &c;
  }
}

/// Snitch SSR: operand fetch via stream semantic registers. Requires a
/// single-op (possibly unrolled) body with affine strides and at most three
/// streamed arrays (Snitch exposes three SSR data movers).
class SsrStream final : public LocalAnnoBase {
 public:
  std::string name() const override { return "ssr_stream"; }

 protected:
  bool legal(const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    const Node* body = streamableOp(s);
    if (!body) return false;
    const Node& op = *body;
    int streams = 0;
    auto affineAccess = [&](const ir::Access& a) {
      for (const auto& e : a.idx)
        if (!e.isAffine()) return false;
      return true;
    };
    // An accumulator held constant across the streamed loop lives in an FP
    // register, not an SSR stream: only operands whose address varies with
    // the streamed iteration occupy one of Snitch's three data movers.
    auto isStream = [&](const ir::Access& a) { return a.usesIter(s.id); };
    if (!affineAccess(op.out)) return false;
    if (isStream(op.out)) ++streams;
    for (const auto& in : op.ins) {
      if (in.kind != Operand::Kind::Array) continue;
      if (!affineAccess(in.access)) return false;
      // A non-varying accumulator read is the same FP register as the
      // output; a varying in-place operand needs its own read stream.
      if (in.access == op.out && !isStream(op.out)) continue;
      if (isStream(in.access)) ++streams;
    }
    return streams <= 3;
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.has_ssr; }
  LoopAnno target() const override { return LoopAnno::Ssr; }
};

/// Snitch FREP: zero-overhead repetition of the FP instruction. Applied as an
/// upgrade of an SSR-streamed loop (operands must already come from streams),
/// mirroring the paper's insistence that composite optimizations decompose
/// into atomic, individually-checkable steps.
class Frep final : public LocalAnnoBase {
 public:
  std::string name() const override { return "frep"; }

 protected:
  bool legal(const Node& s) const override {
    if (s.anno != LoopAnno::Ssr) return false;
    const Node* op = streamableOp(s);
    return op != nullptr && ir::opIsFloatingPoint(op->op);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.has_frep; }
  LoopAnno target() const override { return LoopAnno::Frep; }
};

}  // namespace

const Transform& unroll() {
  static const Unroll t;
  return t;
}
const Transform& vectorize() {
  static const Vectorize t;
  return t;
}
const Transform& parallelize() {
  static const Parallelize t;
  return t;
}
const Transform& gpuMapGrid() {
  static const GpuMapGrid t;
  return t;
}
const Transform& gpuMapBlock() {
  static const GpuMapBlock t;
  return t;
}
const Transform& gpuMapWarp() {
  static const GpuMapWarp t;
  return t;
}
const Transform& ssrStream() {
  static const SsrStream t;
  return t;
}
const Transform& frep() {
  static const Frep t;
  return t;
}

}  // namespace perfdojo::transform
