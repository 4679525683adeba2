// The transformation framework: atomic, semantic-preserving program rewrites
// with built-in applicability detection (Section 2.2).
//
// A Transform never mutates in place: `apply` takes the program by const
// reference and returns the rewritten copy, so search methods can branch
// freely. `findApplicable` enumerates every (location, parameter) pair whose
// application is guaranteed to preserve semantics; `apply` re-checks and
// throws on a stale or forged location. Semantic preservation therefore
// holds for every program reachable through this API — the property that
// lets RL agents explore without learning to avoid broken schedules.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/dtype.h"
#include "ir/program.h"
#include "ir/program_index.h"

namespace perfdojo::ir {
struct MutationSummary;
}

namespace perfdojo::transform {

/// Capabilities of the optimization target, gating which transformations are
/// offered and with which parameters. This is the paper's "hardware exposed
/// to the search only as a library of transformations".
struct MachineCaps {
  std::string name = "generic";
  std::vector<std::int64_t> vector_widths = {4, 8, 16};  // f32 lanes
  bool has_parallel = true;  // multicore / :p
  bool is_gpu = false;       // :g/:b/:w available
  int warp_size = 32;
  std::int64_t max_block_threads = 1024;
  bool has_ssr = false;   // Snitch stream semantic registers
  bool has_frep = false;  // Snitch floating-point repetition
  std::int64_t max_unroll = 16;
  std::vector<std::int64_t> split_factors = {2, 4, 8, 16, 32, 64, 128, 256};
  /// Stack-allocation limit in elements for set_storage(Stack).
  std::int64_t max_stack_elements = 1 << 16;
  /// Register-allocation limit in elements.
  std::int64_t max_register_elements = 64;
};

/// A concrete site (plus parameters) where a transformation applies. The
/// meaning of each field is transformation-specific; `describe()` renders the
/// human-readable form used in logs and the RL action text.
struct Location {
  ir::NodeId node = ir::kInvalidNode;
  std::string buffer;
  int dim = -1;
  int dim2 = -1;
  std::int64_t param = 0;
  ir::MemSpace space = ir::MemSpace::Heap;

  bool operator==(const Location& o) const {
    return node == o.node && buffer == o.buffer && dim == o.dim &&
           dim2 == o.dim2 && param == o.param && space == o.space;
  }
};

class Transform {
 public:
  virtual ~Transform() = default;

  virtual std::string name() const = 0;

  /// Every location at which applying this transform is semantically valid,
  /// read from `ix`, the index of the program state being enumerated. One
  /// index serves every transform's enumeration of that state.
  virtual std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                               const MachineCaps& caps) const = 0;

  /// Same, for callers holding only the program: builds an index for this
  /// one transform. Enumerating many transforms of one state through this
  /// overload repeats the analysis per transform; allActions and ActionSet
  /// build one index and share it.
  std::vector<Location> findApplicable(const ir::Program& p,
                                       const MachineCaps& caps) const;

  /// Applies at `loc`. Throws Error if the location is not applicable
  /// (defense against stale locations; search code never triggers this).
  virtual ir::Program apply(const ir::Program& p, const Location& loc) const = 0;

  /// Applies at `loc` by mutating `q`, filling `mut` (when non-null) with
  /// the mutation's footprint for incremental consumers (delta candidate
  /// hashing, the fuzzer's incremental-hash layer). `validate=false` skips
  /// only the O(n) Program::validate after the mutation: isApplicable is
  /// still checked on `q` (a stale or forged location throws either way),
  /// and the result may be kept — DeltaContext prices and commits it.
  /// Correctness of the mutation itself is owned by the fuzzer's apply and
  /// interpreter oracles and the property suite, on every path including
  /// this one. The base implementation falls back
  /// to apply() with a conservative (whole-program) summary, so transforms
  /// that do not report stay correct, just not fast.
  ///
  /// On throw, `q` may be left partially mutated; callers keeping `q` alive
  /// must restore it themselves.
  virtual void applyInPlace(ir::Program& q, const Location& loc,
                            ir::MutationSummary* mut,
                            bool validate = true) const;

  /// Human-readable rendering, e.g. "split_scope(@2 extent=512, factor=16)".
  std::string describe(const ir::Program& p, const Location& loc) const;
};

/// An applicable move in the PerfDojo game: a transform + its location.
struct Action {
  const Transform* transform = nullptr;
  Location loc;

  ir::Program apply(const ir::Program& p) const { return transform->apply(p, loc); }
  std::string describe(const ir::Program& p) const {
    return transform->describe(p, loc);
  }
};

/// The full transformation library (singletons; order is stable).
const std::vector<const Transform*>& allTransforms();

/// Lookup by name; nullptr if unknown.
const Transform* findTransform(const std::string& name);

/// Enumerates every applicable action of every transform.
std::vector<Action> allActions(const ir::Program& p, const MachineCaps& caps);

/// Same, drawing from an explicit transform list. This is the differential
/// fuzzer's injection point: tests register a deliberately mis-detecting
/// transform alongside the real library and the oracle must catch it.
std::vector<Action> allActions(const ir::Program& p, const MachineCaps& caps,
                               const std::vector<const Transform*>& transforms);

/// Key=value rendering of a Location for replay files, e.g.
/// "node=4 buffer=x dim=1 param=16 space=stack" (defaulted fields omitted,
/// except `node` which is always present). Parsed back by locationFromText.
std::string locationToText(const Location& loc);

/// Parses locationToText output. Returns false on malformed input.
bool locationFromText(const std::string& text, Location& out);

// Named accessors for direct use by passes, examples and tests.
const Transform& splitScope();
const Transform& collapseScopes();
const Transform& interchangeScopes();
const Transform& joinScopes();
const Transform& fissionScope();
const Transform& reorderOps();
const Transform& partialReduce();
const Transform& unroll();
const Transform& vectorize();
const Transform& parallelize();
const Transform& gpuMapGrid();
const Transform& gpuMapBlock();
const Transform& gpuMapWarp();
const Transform& ssrStream();
const Transform& frep();
const Transform& reuseDims();
const Transform& materializeDims();
const Transform& reorderDims();
const Transform& padDim();
const Transform& setStorage();

}  // namespace perfdojo::transform
