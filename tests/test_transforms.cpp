// Behaviour of each individual transformation, including the paper's
// Figure 5 scenario (reuse_dims valid only after join_scopes).
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/canonical.h"
#include "ir/printer.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "support/common.h"
#include "transform/transform.h"
#include "verify/verifier.h"

namespace perfdojo::transform {
namespace {

using ir::LoopAnno;
using ir::Node;
using ir::Program;

MachineCaps cpuCaps() {
  MachineCaps c;
  c.vector_widths = {4, 8};
  c.has_parallel = true;
  return c;
}

MachineCaps gpuCaps() {
  MachineCaps c;
  c.is_gpu = true;
  c.has_parallel = false;
  c.warp_size = 32;
  c.vector_widths = {2, 4};
  return c;
}

MachineCaps snitchCaps() {
  MachineCaps c;
  c.vector_widths = {};
  c.has_parallel = false;
  c.has_ssr = true;
  c.has_frep = true;
  return c;
}

void expectEquivalent(const Program& a, const Program& b, const char* what) {
  const auto r = verify::verifyEquivalent(a, b);
  EXPECT_TRUE(r.equivalent) << what << ": " << r.detail;
}

Location firstLoc(const Transform& t, const Program& p, const MachineCaps& caps) {
  auto locs = t.findApplicable(p, caps);
  EXPECT_FALSE(locs.empty()) << t.name() << " found no applicable locations";
  require(!locs.empty(), "no locations");
  return locs[0];
}

TEST(SplitScope, TilesAndPreservesSemantics) {
  const Program p = kernels::makeAdd(8, 16);
  auto locs = splitScope().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  for (const auto& loc : locs) {
    const Program q = splitScope().apply(p, loc);
    expectEquivalent(p, q, "split_scope");
    EXPECT_GT(ir::collectScopes(q.root).size(), ir::collectScopes(p.root).size());
  }
}

TEST(SplitScope, RejectsNonDivisors) {
  const Program p = kernels::makeAdd(7, 11);  // prime extents
  EXPECT_TRUE(splitScope().findApplicable(p, cpuCaps()).empty());
}

TEST(SplitScope, ApplyRejectsForgedLocation) {
  const Program p = kernels::makeAdd(8, 16);
  Location bad;
  bad.node = ir::collectScopes(p.root)[0]->id;
  bad.param = 3;  // does not divide 8
  EXPECT_THROW(splitScope().apply(p, bad), Error);
}

TEST(CollapseScopes, StaleLocationThrowsExactMessage) {
  // Collapsing gives the merged scope a fresh id, so the location that was
  // applied names no node of the result: re-applying it must fail with the
  // transform's name and the fixed message, on both apply paths.
  const Program p = kernels::makeAdd(8, 16);
  const Location loc = firstLoc(collapseScopes(), p, cpuCaps());
  Program q = collapseScopes().apply(p, loc);
  const std::string want =
      "collapse_scopes: location not applicable to this program";
  try {
    collapseScopes().applyInPlace(q, loc, nullptr);
    FAIL() << "stale location applied in place";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
  try {
    (void)collapseScopes().apply(q, loc);
    FAIL() << "stale location applied";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
}

TEST(CollapseScopes, InverseOfSplitSemantics) {
  const Program p = kernels::makeAdd(8, 16);
  Location loc = firstLoc(splitScope(), p, cpuCaps());
  const Program q = splitScope().apply(p, loc);
  auto clocs = collapseScopes().findApplicable(q, cpuCaps());
  ASSERT_FALSE(clocs.empty());
  const Program r = collapseScopes().apply(q, clocs[0]);
  expectEquivalent(p, r, "collapse after split");
}

TEST(InterchangeScopes, SwapsPerfectNest) {
  const Program p = kernels::makeAdd(8, 16);
  auto scopes = ir::collectScopes(p.root);
  Location loc;
  loc.node = scopes[0]->id;
  const Program q = interchangeScopes().apply(p, loc);
  auto qscopes = ir::collectScopes(q.root);
  EXPECT_EQ(qscopes[0]->extent, 16);
  EXPECT_EQ(qscopes[1]->extent, 8);
  expectEquivalent(p, q, "interchange");
}

TEST(InterchangeScopes, HandlesReductionNests) {
  const Program p = kernels::makeMatmul(4, 6, 8);
  for (const auto& loc : interchangeScopes().findApplicable(p, cpuCaps())) {
    expectEquivalent(p, interchangeScopes().apply(p, loc), "interchange matmul");
  }
}

TEST(JoinScopes, FusesSoftmaxRowLoops) {
  const Program p = kernels::makeSoftmax(4, 8);
  auto locs = joinScopes().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  const Program q = joinScopes().apply(p, locs[0]);
  expectEquivalent(p, q, "join_scopes");
  EXPECT_LT(ir::collectScopes(q.root).size(), ir::collectScopes(p.root).size());
}

TEST(JoinScopes, ExhaustiveFusionStillCorrect) {
  Program p = kernels::makeSoftmax(4, 8);
  int fused = 0;
  while (true) {
    auto locs = joinScopes().findApplicable(p, cpuCaps());
    if (locs.empty()) break;
    p = joinScopes().apply(p, locs[0]);
    ++fused;
    ASSERT_LT(fused, 100);
  }
  EXPECT_GT(fused, 3);
  expectEquivalent(kernels::makeSoftmax(4, 8), p, "exhaustive fusion");
}

TEST(FissionScope, SplitsFusedBody) {
  Program p = kernels::makeSoftmax(4, 8);
  auto locs = joinScopes().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  p = joinScopes().apply(p, locs[0]);
  auto flocs = fissionScope().findApplicable(p, cpuCaps());
  ASSERT_FALSE(flocs.empty());
  const Program q = fissionScope().apply(p, flocs[0]);
  expectEquivalent(p, q, "fission");
}

TEST(ReorderOps, SwapsIndependentSiblings) {
  const Program p = kernels::makeSwiglu(2, 3, 4);
  auto locs = reorderOps().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  for (const auto& loc : locs)
    expectEquivalent(p, reorderOps().apply(p, loc), "reorder_ops");
}

TEST(Unroll, AnnotatesSmallLoops) {
  const Program p = kernels::makeConv2d(1, 2, 2, 6, 6, 3);
  auto locs = unroll().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  const Program q = unroll().apply(p, locs[0]);
  bool any = false;
  for (const Node* s : ir::collectScopes(q.root))
    if (s->anno == LoopAnno::Unroll) any = true;
  EXPECT_TRUE(any);
  expectEquivalent(p, q, "unroll");
}

TEST(Vectorize, RequiresTilingFirst) {
  // Exactly the paper's decomposition: vectorize only applies to a loop of
  // vector width wrapping a single op.
  const Program p = kernels::makeAdd(8, 64);
  EXPECT_TRUE(vectorize().findApplicable(p, cpuCaps()).empty());
  // Split the 64-loop by 8, then vectorize the inner loop.
  auto slocs = splitScope().findApplicable(p, cpuCaps());
  const ir::Node* inner = ir::collectScopes(p.root)[1];
  Location split_loc;
  for (const auto& l : slocs)
    if (l.node == inner->id && l.param == 8) split_loc = l;
  ASSERT_NE(split_loc.node, ir::kInvalidNode);
  const Program q = splitScope().apply(p, split_loc);
  auto vlocs = vectorize().findApplicable(q, cpuCaps());
  ASSERT_FALSE(vlocs.empty());
  const Program r = vectorize().apply(q, vlocs[0]);
  expectEquivalent(p, r, "vectorize");
}

TEST(Vectorize, RejectsStridedInnerAccess) {
  // After interchange, the inner loop indexes the non-contiguous dimension.
  Program p = kernels::makeAdd(8, 8);
  Location loc;
  loc.node = ir::collectScopes(p.root)[0]->id;
  p = interchangeScopes().apply(p, loc);
  // inner loop (extent 8) now walks the first index: stride M, not 1.
  auto vlocs = vectorize().findApplicable(p, cpuCaps());
  EXPECT_TRUE(vlocs.empty());
}

TEST(Parallelize, OuterLoopOnly) {
  const Program p = kernels::makeReduceMean(8, 16);
  auto locs = parallelize().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  for (const auto& loc : locs) {
    const Node* s = ir::findNode(p.root, loc.node);
    EXPECT_EQ(s->extent, 8) << "only the row loop is independent";
  }
}

TEST(Parallelize, NoNesting) {
  Program p = kernels::makeAdd(8, 16);
  Location loc;
  loc.node = ir::collectScopes(p.root)[0]->id;
  p = parallelize().apply(p, loc);
  for (const auto& l : parallelize().findApplicable(p, cpuCaps())) {
    const Node* s = ir::findNode(p.root, l.node);
    EXPECT_NE(s->anno, LoopAnno::Parallel);
    // No remaining candidate may nest inside/above the existing :p.
    EXPECT_TRUE(parallelize().findApplicable(p, cpuCaps()).empty());
  }
}

TEST(GpuMap, GridThenBlock) {
  Program p = kernels::makeMul(8, 64);
  auto glocs = gpuMapGrid().findApplicable(p, gpuCaps());
  ASSERT_FALSE(glocs.empty());
  // Block mapping requires an enclosing grid first.
  EXPECT_TRUE(gpuMapBlock().findApplicable(p, gpuCaps()).empty());
  Location outer;
  for (const auto& l : glocs)
    if (ir::findNode(p.root, l.node)->extent == 8) outer = l;
  ASSERT_NE(outer.node, ir::kInvalidNode);
  p = gpuMapGrid().apply(p, outer);
  auto blocs = gpuMapBlock().findApplicable(p, gpuCaps());
  ASSERT_FALSE(blocs.empty());
  p = gpuMapBlock().apply(p, blocs[0]);
  expectEquivalent(kernels::makeMul(8, 64), p, "gpu mapping");
}

TEST(SnitchAnnos, SsrThenFrep) {
  Program p = kernels::makeAxpy(16);
  auto slocs = ssrStream().findApplicable(p, snitchCaps());
  ASSERT_FALSE(slocs.empty());
  // FREP requires SSR first (atomic decomposition).
  EXPECT_TRUE(frep().findApplicable(p, snitchCaps()).empty());
  p = ssrStream().apply(p, slocs[0]);
  auto flocs = frep().findApplicable(p, snitchCaps());
  ASSERT_FALSE(flocs.empty());
  p = frep().apply(p, flocs[0]);
  expectEquivalent(kernels::makeAxpy(16), p, "ssr+frep");
}

TEST(SsrStream, RegisterAccumulatorNotCharged) {
  // matmul's k-loop fma reads A, B and the accumulator Cm[i,j]; the
  // accumulator address is loop-invariant, so it lives in an FP register and
  // only A and B occupy SSR data movers: the k-loop is streamable.
  Program p = kernels::makeMatmul(4, 4, 4);
  bool k_loop_streamable = false;
  for (const auto& l : ssrStream().findApplicable(p, snitchCaps())) {
    const Node* s = ir::findNode(p.root, l.node);
    if (s->extent == 4 && s->children.size() == 1 &&
        s->children[0].isOp() && s->children[0].op == ir::OpCode::Fma)
      k_loop_streamable = true;
  }
  EXPECT_TRUE(k_loop_streamable);
}

TEST(SsrStream, VaryingInPlaceOperandCounts) {
  // t[i] = fma t[i] a[i] b[i]: the in-place operand varies with the loop, so
  // it needs both a read and a write stream -> 4 streams -> rejected.
  ir::Builder b("k");
  b.buffer("t", ir::DType::F64, {16}).buffer("a", ir::DType::F64, {16});
  b.buffer("bb", ir::DType::F64, {16});
  b.input("a").input("bb").output("t");
  b.beginScope(16);
  b.op(ir::OpCode::Fma, b.atDepths("t", {0}),
       {ir::Builder::arr(b.atDepths("t", {0})),
        ir::Builder::arr(b.atDepths("a", {0})),
        ir::Builder::arr(b.atDepths("bb", {0}))});
  b.endScope();
  const Program p = b.finish();
  EXPECT_TRUE(ssrStream().findApplicable(p, snitchCaps()).empty());
}

TEST(PartialReduce, VectorizableReduction) {
  const Program p = kernels::makeSum(32);
  auto locs = partialReduce().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  for (const auto& loc : locs) {
    const Program q = partialReduce().apply(p, loc);
    verify::VerifyOptions vo;
    vo.rel_tol = 1e-5;  // reassociation tolerance
    const auto r = verify::verifyEquivalent(p, q, vo);
    EXPECT_TRUE(r.equivalent) << r.detail;
  }
}

TEST(PartialReduce, EnablesIndependentChains) {
  Program p = kernels::makeDot(32);
  Location loc;
  for (const auto& l : partialReduce().findApplicable(p, snitchCaps()))
    if (l.param == 4) loc = l;
  ASSERT_NE(loc.node, ir::kInvalidNode);
  p = partialReduce().apply(p, loc);
  // The inner 4-loop accumulates into part[inner]: unrollable.
  auto ulocs = unroll().findApplicable(p, snitchCaps());
  ASSERT_FALSE(ulocs.empty());
  bool found4 = false;
  for (const auto& l : ulocs)
    if (ir::findNode(p.root, l.node)->extent == 4) found4 = true;
  EXPECT_TRUE(found4);
}

TEST(ReuseDims, Figure5Scenario) {
  // t written in one loop and read in the following loop: reuse_dims must be
  // rejected before fusion and accepted after join_scopes.
  const Program p = kernels::makeSoftmax(4, 8);
  for (const auto& l : reuseDims().findApplicable(p, cpuCaps()))
    EXPECT_NE(l.buffer, "t") << "t's dims are used in multiple scopes";

  // Fuse everything, then t/mx/l dims become reusable.
  Program q = p;
  while (true) {
    auto locs = joinScopes().findApplicable(q, cpuCaps());
    if (locs.empty()) break;
    q = joinScopes().apply(q, locs[0]);
  }
  auto rlocs = reuseDims().findApplicable(q, cpuCaps());
  bool mx_dim0 = false;
  for (const auto& l : rlocs)
    if (l.buffer == "mx" && l.dim == 0) mx_dim0 = true;
  EXPECT_TRUE(mx_dim0);
  for (const auto& l : rlocs) {
    const Program r = reuseDims().apply(q, l);
    expectEquivalent(p, r, "reuse_dims after fusion");
  }
}

TEST(ReuseDims, NeverOffersExternalBuffers) {
  const Program p = kernels::makeRelu(8, 8);
  for (const auto& l : reuseDims().findApplicable(p, cpuCaps())) {
    EXPECT_NE(l.buffer, "x");
    EXPECT_NE(l.buffer, "y");
  }
}

TEST(MaterializeDims, UndoesReuse) {
  Program p = kernels::makeSoftmax(4, 8);
  while (true) {
    auto locs = joinScopes().findApplicable(p, cpuCaps());
    if (locs.empty()) break;
    p = joinScopes().apply(p, locs[0]);
  }
  auto rlocs = reuseDims().findApplicable(p, cpuCaps());
  ASSERT_FALSE(rlocs.empty());
  const Program q = reuseDims().apply(p, rlocs[0]);
  auto mlocs = materializeDims().findApplicable(q, cpuCaps());
  ASSERT_FALSE(mlocs.empty());
  const Program r = materializeDims().apply(q, mlocs[0]);
  EXPECT_TRUE(ir::canonicallyEqual(p, r));
}

TEST(ReorderDims, TransposesInternalLayout) {
  const Program p = kernels::makeSoftmax(4, 8);
  auto locs = reorderDims().findApplicable(p, cpuCaps());
  bool found_t = false;
  for (const auto& l : locs) {
    if (l.buffer == "t") found_t = true;
    expectEquivalent(p, reorderDims().apply(p, l), "reorder_dims");
  }
  EXPECT_TRUE(found_t);
}

TEST(PadDim, EnlargesInternalBuffer) {
  const Program p = kernels::makeSoftmax(4, 10);
  auto locs = padDim().findApplicable(p, cpuCaps());
  ASSERT_FALSE(locs.empty());
  for (const auto& l : locs) {
    const Program q = padDim().apply(p, l);
    EXPECT_GT(q.findBuffer(l.buffer)->shape[static_cast<std::size_t>(l.dim)],
              p.findBuffer(l.buffer)->shape[static_cast<std::size_t>(l.dim)]);
    expectEquivalent(p, q, "pad_dim");
  }
}

TEST(SetStorage, MovesTempsToStack) {
  const Program p = kernels::makeSoftmax(4, 8);
  auto locs = setStorage().findApplicable(p, cpuCaps());
  bool stack_mx = false;
  for (const auto& l : locs) {
    if (l.buffer == "mx" && l.space == ir::MemSpace::Stack) stack_mx = true;
    expectEquivalent(p, setStorage().apply(p, l), "set_storage");
  }
  EXPECT_TRUE(stack_mx);
}

TEST(Registry, AllTransformsListed) {
  EXPECT_GE(allTransforms().size(), 19u);
  EXPECT_NE(findTransform("split_scope"), nullptr);
  EXPECT_NE(findTransform("reuse_dims"), nullptr);
  EXPECT_EQ(findTransform("bogus"), nullptr);
  // Names unique.
  std::set<std::string> names;
  for (const auto* t : allTransforms()) EXPECT_TRUE(names.insert(t->name()).second);
}

TEST(Registry, DescribeMentionsSite) {
  const Program p = kernels::makeAdd(8, 16);
  auto actions = allActions(p, cpuCaps());
  ASSERT_FALSE(actions.empty());
  for (const auto& a : actions) {
    const std::string d = a.describe(p);
    EXPECT_NE(d.find(a.transform->name()), std::string::npos);
  }
}

}  // namespace
}  // namespace perfdojo::transform
// NOTE: appended coverage for the parallel/reuse interaction guards.
namespace perfdojo::transform {
namespace {

TEST(ReuseDims, RejectedOnParallelScope) {
  // After parallelizing the row loop, collapsing a row-indexed temp would
  // make concurrent iterations share one slot: must not be offered.
  MachineCaps caps;
  caps.vector_widths = {4, 8};
  ir::Program p = kernels::makeSoftmax(4, 8);
  // Fuse all row loops first so reuse *would* be legal sequentially.
  while (true) {
    auto locs = joinScopes().findApplicable(p, caps);
    if (locs.empty()) break;
    p = joinScopes().apply(p, locs[0]);
  }
  auto plocs = parallelize().findApplicable(p, caps);
  ASSERT_FALSE(plocs.empty());
  p = parallelize().apply(p, plocs[0]);
  for (const auto& l : reuseDims().findApplicable(p, caps)) {
    // No reused dim may be driven by the parallel scope's iterator.
    const ir::Program q = reuseDims().apply(p, l);
    const auto* b = q.findBuffer(l.buffer);
    ASSERT_NE(b, nullptr);
  }
  // Specifically: mx dim 0 (indexed by the now-parallel row loop) is gone.
  bool mx0 = false;
  for (const auto& l : reuseDims().findApplicable(p, caps))
    if (l.buffer == "mx" && l.dim == 0) mx0 = true;
  EXPECT_FALSE(mx0);
}

TEST(Parallelize, RejectedOnReusedBufferScope) {
  // The dual direction: once mx is collapsed, the row loop must not be
  // parallelizable (all iterations share the single slot).
  MachineCaps caps;
  caps.vector_widths = {4, 8};
  ir::Program p = kernels::makeSoftmax(4, 8);
  while (true) {
    auto locs = joinScopes().findApplicable(p, caps);
    if (locs.empty()) break;
    p = joinScopes().apply(p, locs[0]);
  }
  while (true) {
    auto locs = reuseDims().findApplicable(p, caps);
    if (locs.empty()) break;
    p = reuseDims().apply(p, locs[0]);
  }
  // Loops not touching the collapsed buffer stay parallelizable; any scope
  // whose subtree writes the collapsed mx must not be offered.
  for (const auto& l : parallelize().findApplicable(p, caps)) {
    const ir::Node* s = ir::findNode(p.root, l.node);
    bool writes_mx = false;
    for (const ir::Node* op : ir::collectOps(*s))
      if (op->out.array == "mx") writes_mx = true;
    EXPECT_FALSE(writes_mx) << "scope writing collapsed mx offered as :p";
  }
}

TEST(Vectorize, RejectsLaneInvariantOutput) {
  // mx[i] = max(mx[i], x[i,j]) over j: all lanes would write one element.
  MachineCaps caps;
  caps.vector_widths = {8};
  const ir::Program p = kernels::makeSoftmax(4, 8);
  for (const auto& l : vectorize().findApplicable(p, caps)) {
    const ir::Node* s = ir::findNode(p.root, l.node);
    ASSERT_EQ(s->children.size(), 1u);
    EXPECT_TRUE(s->children[0].out.usesIter(s->id));
  }
}

}  // namespace
}  // namespace perfdojo::transform
