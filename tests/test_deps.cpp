#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/program_index.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "transform/deps.h"

namespace perfdojo::transform {
namespace {

using ir::Builder;
using ir::DType;
using ir::OpCode;

TEST(Deps, AccumulationDetection) {
  auto p = kernels::makeSum(8);
  auto ops = ir::collectOps(p.root);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(ir::isAccumulation(*ops[0]));  // init mov
  EXPECT_TRUE(ir::isAccumulation(*ops[1]));   // s = add s x
}

TEST(Deps, FmaAccumulationDetection) {
  auto p = kernels::makeMatmul(2, 3, 4);
  auto ops = ir::collectOps(p.root);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ir::isAccumulation(*ops[1]));
}

TEST(Deps, MayAliasBufferGranularity) {
  auto p = kernels::makeAdd(4, 4);
  const auto ops = ir::collectOps(p.root);
  const auto info = ir::opInfo(p, *ops[0]);
  // x and z are different buffers.
  EXPECT_FALSE(mayAlias(info.write, info.reads()[0]));
  // z vs z same indices.
  EXPECT_TRUE(mayAlias(info.write, info.write));
}

TEST(Deps, MayAliasConstDistinct) {
  ir::Access a, b;
  a.array = b.array = "s";
  a.idx = {ir::IndexExpr::constant(0)};
  b.idx = {ir::IndexExpr::constant(1)};
  auto p = kernels::makeSum(8);
  // Make a two-element variant for the check.
  p.findBuffer("s")->shape = {2};
  const ir::Buffer* s = p.findBuffer("s");
  EXPECT_FALSE(mayAlias({&a, s}, {&b, s}));
}

TEST(Deps, SharedBufferArraysConflict) {
  Builder b("k");
  b.buffer("t", DType::F32, {4}, ir::MemSpace::Heap, {"a", "c"});
  ir::Program p;
  {
    b.buffer("x", DType::F32, {4});
    b.input("x");
    b.beginScope(4);
    b.op(OpCode::Mov, b.atDepths("a", {0}), {Builder::arr(b.atDepths("x", {0}))});
    b.endScope();
    p = b.finish();
  }
  ir::Access ra, rc;
  ra.array = "a";
  rc.array = "c";
  ra.idx = {ir::IndexExpr::constant(0)};
  rc.idx = {ir::IndexExpr::constant(1)};
  // Conservative: same buffer.
  EXPECT_TRUE(mayAlias({&ra, p.bufferOfArray("a")}, {&rc, p.bufferOfArray("c")}));
}

TEST(Deps, IterationsIndependentElementwise) {
  auto p = kernels::makeAdd(4, 8);
  auto scopes = ir::collectScopes(p.root);
  const ir::ProgramIndex ix(p);
  EXPECT_TRUE(iterationsIndependent(ix.ops(scopes[0]->id), scopes[0]->id));
  EXPECT_TRUE(iterationsIndependent(ix.ops(scopes[1]->id), scopes[1]->id));
}

TEST(Deps, IterationsNotIndependentForReduction) {
  auto p = kernels::makeReduceMean(4, 8);
  auto scopes = ir::collectScopes(p.root);
  const ir::ProgramIndex ix(p);
  // The inner d-loop accumulates into m[i]: not parallelizable.
  bool found_dependent = false;
  for (const auto* s : scopes) {
    if (s->extent == 8 && !iterationsIndependent(ix.ops(s->id), s->id))
      found_dependent = true;
  }
  EXPECT_TRUE(found_dependent);
}

TEST(Deps, InterchangeLegalForMatmulOuterPair) {
  auto p = kernels::makeMatmul(4, 5, 6);
  auto scopes = ir::collectScopes(p.root);
  // m-scope (extent 4) has single child n-scope (extent 6).
  const ir::ProgramIndex ix(p);
  EXPECT_TRUE(interchangeLegal(ix.ops(scopes[1]->id), scopes[0]->id, scopes[1]->id));
}

TEST(Deps, FusionLegalSameIndex) {
  // loop i: t[i] = x[i]*2 ; loop i: y[i] = t[i]+1  -> fusable
  Builder b("k");
  b.buffer("x", DType::F32, {8}).buffer("t", DType::F32, {8});
  b.buffer("y", DType::F32, {8});
  b.input("x").output("y");
  auto s1 = b.beginScope(8);
  b.op(OpCode::Mul, b.atDepths("t", {0}),
       {Builder::arr(b.atDepths("x", {0})), Builder::cst(2.0)});
  b.endScope();
  auto s2 = b.beginScope(8);
  b.op(OpCode::Add, b.atDepths("y", {0}),
       {Builder::arr(b.atDepths("t", {0})), Builder::cst(1.0)});
  b.endScope();
  auto p = b.finish();
  const ir::ProgramIndex ix(p);
  EXPECT_TRUE(fusionLegal(ix.ops(s1), s1, ix.ops(s2), s2));
}

TEST(Deps, FusionIllegalScalarCarried) {
  // loop i: s[0] += x[i] ; loop i: y[i] = x[i]/s[0]  -> NOT fusable
  Builder b("k");
  b.buffer("x", DType::F32, {8}).buffer("s", DType::F32, {1});
  b.buffer("y", DType::F32, {8});
  b.input("x").output("y");
  auto s1 = b.beginScope(8);
  b.op(OpCode::Add, b.at("s", {ir::IndexExpr::constant(0)}),
       {Builder::arr(b.at("s", {ir::IndexExpr::constant(0)})),
        Builder::arr(b.atDepths("x", {0}))});
  b.endScope();
  auto s2 = b.beginScope(8);
  b.op(OpCode::Div, b.atDepths("y", {0}),
       {Builder::arr(b.atDepths("x", {0})),
        Builder::arr(b.at("s", {ir::IndexExpr::constant(0)}))});
  b.endScope();
  auto p = b.finish();
  const ir::ProgramIndex ix(p);
  EXPECT_FALSE(fusionLegal(ix.ops(s1), s1, ix.ops(s2), s2));
}

TEST(Deps, FusionIllegalShiftedIndex) {
  // loop i: t[i] = x[i] ; loop i: y[i] = t[(i+1) % 8]-ish shifted read.
  Builder b("k");
  b.buffer("x", DType::F32, {9}).buffer("t", DType::F32, {9});
  b.buffer("y", DType::F32, {8});
  b.input("x").output("y");
  auto s1 = b.beginScope(8);
  b.op(OpCode::Mov, b.atDepths("t", {0}), {Builder::arr(b.atDepths("x", {0}))});
  b.endScope();
  auto s2 = b.beginScope(8);
  b.op(OpCode::Mov, b.atDepths("y", {0}),
       {Builder::arr(b.at("t", {ir::IndexExpr::add(b.it(0), ir::IndexExpr::constant(1))}))});
  b.endScope();
  auto p = b.finish();
  const ir::ProgramIndex ix(p);
  EXPECT_FALSE(fusionLegal(ix.ops(s1), s1, ix.ops(s2), s2));
}

TEST(Deps, OpsSwappableIndependent) {
  Builder b("k");
  b.buffer("x", DType::F32, {4}).buffer("y", DType::F32, {4});
  b.buffer("u", DType::F32, {4}).buffer("v", DType::F32, {4});
  b.input("x").input("y").output("u").output("v");
  b.beginScope(4);
  b.op(OpCode::Mov, b.atDepths("u", {0}), {Builder::arr(b.atDepths("x", {0}))});
  b.op(OpCode::Mov, b.atDepths("v", {0}), {Builder::arr(b.atDepths("y", {0}))});
  b.endScope();
  auto p = b.finish();
  auto ops = ir::collectOps(p.root);
  const ir::ProgramIndex ix(p);
  EXPECT_TRUE(opsSwappable(ix.ops(ops[0]->id), ix.ops(ops[1]->id)));
}

TEST(Deps, OpsNotSwappableWhenChained) {
  Builder b("k");
  b.buffer("x", DType::F32, {4}).buffer("t", DType::F32, {4});
  b.buffer("y", DType::F32, {4});
  b.input("x").output("y");
  b.beginScope(4);
  b.op(OpCode::Mul, b.atDepths("t", {0}),
       {Builder::arr(b.atDepths("x", {0})), Builder::cst(2.0)});
  b.op(OpCode::Mov, b.atDepths("y", {0}), {Builder::arr(b.atDepths("t", {0}))});
  b.endScope();
  auto p = b.finish();
  auto ops = ir::collectOps(p.root);
  const ir::ProgramIndex ix(p);
  EXPECT_FALSE(opsSwappable(ix.ops(ops[0]->id), ix.ops(ops[1]->id)));
}

}  // namespace
}  // namespace perfdojo::transform
