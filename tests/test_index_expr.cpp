#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "ir/index_expr.h"
#include "ir/walk.h"
#include "support/common.h"

namespace perfdojo::ir {
namespace {

TEST(IndexExpr, EvalArithmetic) {
  auto e = IndexExpr::add(
      IndexExpr::mul(IndexExpr::iter(1), IndexExpr::constant(4)),
      IndexExpr::iter(2));
  auto lookup = [](NodeId id) -> std::int64_t { return id == 1 ? 3 : 2; };
  EXPECT_EQ(e.eval(lookup), 14);
}

TEST(IndexExpr, EvalDivMod) {
  auto e = IndexExpr::div(IndexExpr::iter(1), IndexExpr::constant(4));
  auto m = IndexExpr::mod(IndexExpr::iter(1), IndexExpr::constant(4));
  auto lookup = [](NodeId) -> std::int64_t { return 13; };
  EXPECT_EQ(e.eval(lookup), 3);
  EXPECT_EQ(m.eval(lookup), 1);
}

TEST(IndexExpr, SimplifyIdentities) {
  auto x = IndexExpr::iter(1);
  EXPECT_TRUE(IndexExpr::mul(x, IndexExpr::constant(1)).simplified() == x);
  EXPECT_TRUE(IndexExpr::add(x, IndexExpr::constant(0)).simplified() == x);
  EXPECT_TRUE(IndexExpr::mul(x, IndexExpr::constant(0)).simplified() ==
              IndexExpr::constant(0));
  EXPECT_TRUE(IndexExpr::add(IndexExpr::constant(2), IndexExpr::constant(3))
                  .simplified() == IndexExpr::constant(5));
}

TEST(IndexExpr, Substitute) {
  auto e = IndexExpr::add(IndexExpr::iter(1), IndexExpr::iter(2));
  auto r = e.substitute(1, IndexExpr::constant(7));
  auto lookup = [](NodeId) -> std::int64_t { return 5; };
  EXPECT_EQ(r.eval(lookup), 12);
}

TEST(IndexExpr, SubstituteSinglePass) {
  // iter(1) -> iter(1)*4 + iter(2) must not recurse into its own result.
  auto repl = IndexExpr::add(
      IndexExpr::mul(IndexExpr::iter(1), IndexExpr::constant(4)),
      IndexExpr::iter(2));
  auto r = IndexExpr::iter(1).substitute(1, repl);
  auto lookup = [](NodeId id) -> std::int64_t { return id == 1 ? 2 : 3; };
  EXPECT_EQ(r.eval(lookup), 11);
}

TEST(IndexExpr, CollectIters) {
  auto e = IndexExpr::add(IndexExpr::iter(3),
                          IndexExpr::mul(IndexExpr::iter(3), IndexExpr::iter(5)));
  std::vector<NodeId> its;
  e.collectIters(its);
  EXPECT_EQ(its.size(), 2u);
  EXPECT_TRUE(e.usesIter(3));
  EXPECT_TRUE(e.usesIter(5));
  EXPECT_FALSE(e.usesIter(4));
}

TEST(IndexExpr, AffineDecomposition) {
  // 2*i + j + 5
  auto e = IndexExpr::add(
      IndexExpr::add(IndexExpr::mul(IndexExpr::constant(2), IndexExpr::iter(1)),
                     IndexExpr::iter(2)),
      IndexExpr::constant(5));
  std::vector<IndexExpr::AffineTerm> terms;
  std::int64_t off = 0;
  ASSERT_TRUE(e.asAffine(terms, off));
  EXPECT_EQ(off, 5);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].coef, 2);
  EXPECT_EQ(terms[1].coef, 1);
}

TEST(IndexExpr, AffineRejectsDivMod) {
  auto e = IndexExpr::div(IndexExpr::iter(1), IndexExpr::constant(2));
  std::vector<IndexExpr::AffineTerm> terms;
  std::int64_t off = 0;
  EXPECT_FALSE(e.asAffine(terms, off));
}

TEST(IndexExpr, AffineSubtraction) {
  // i - j : coef(i)=1, coef(j)=-1
  auto e = IndexExpr::sub(IndexExpr::iter(1), IndexExpr::iter(2));
  std::vector<IndexExpr::AffineTerm> terms;
  std::int64_t off = 0;
  ASSERT_TRUE(e.asAffine(terms, off));
  EXPECT_EQ(terms[0].coef, 1);
  EXPECT_EQ(terms[1].coef, -1);
}

TEST(IndexExpr, Equality) {
  auto a = IndexExpr::add(IndexExpr::iter(1), IndexExpr::constant(2));
  auto b = IndexExpr::add(IndexExpr::iter(1), IndexExpr::constant(2));
  auto c = IndexExpr::add(IndexExpr::iter(1), IndexExpr::constant(3));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(IndexExpr, InvalidAccessThrows) {
  EXPECT_THROW(IndexExpr::constant(1).iterScope(), Error);
  EXPECT_THROW(IndexExpr::iter(1).constValue(), Error);
  EXPECT_THROW(IndexExpr::iter(0), Error);
}

// 4*i + j, built fresh on every call so no subtree is shared between calls.
IndexExpr linear(NodeId i, NodeId j) {
  return IndexExpr::add(IndexExpr::mul(IndexExpr::constant(4), IndexExpr::iter(i)),
                        IndexExpr::iter(j));
}

TEST(IndexExpr, CopyAndMoveKeepTheValue) {
  const IndexExpr orig = linear(1, 2);
  IndexExpr copy(orig);
  EXPECT_TRUE(copy == orig);
  EXPECT_EQ(&copy.lhs(), &orig.lhs());  // a copy shares the children

  IndexExpr moved(std::move(copy));
  EXPECT_TRUE(moved == orig);
  EXPECT_TRUE(copy.isConst());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.constValue(), 0);

  IndexExpr assigned = IndexExpr::iter(7);
  assigned = orig;
  EXPECT_TRUE(assigned == orig);
  assigned = IndexExpr::constant(3);
  EXPECT_TRUE(assigned == IndexExpr::constant(3));
  EXPECT_TRUE(orig == linear(1, 2));  // dropping the copies left orig intact

  IndexExpr moveAssigned;
  moveAssigned = std::move(moved);
  EXPECT_TRUE(moveAssigned == orig);
  EXPECT_TRUE(moved == IndexExpr());  // NOLINT(bugprone-use-after-move)
}

TEST(IndexExpr, SelfAssignment) {
  IndexExpr e = linear(1, 2);
  const IndexExpr& alias = e;
  e = alias;
  EXPECT_TRUE(e == linear(1, 2));
  IndexExpr& self = e;
  e = std::move(self);
  EXPECT_TRUE(e == linear(1, 2));
}

TEST(IndexExpr, SubstituteAndSimplifyLeaveTheirInput) {
  const IndexExpr e = IndexExpr::add(linear(1, 2), IndexExpr::constant(0));
  const IndexExpr before = IndexExpr::add(linear(1, 2), IndexExpr::constant(0));

  const IndexExpr sub = e.substitute(1, IndexExpr::constant(5));
  EXPECT_TRUE(e == before);
  EXPECT_FALSE(sub == before);
  EXPECT_EQ(sub.eval([](NodeId) -> std::int64_t { return 1; }), 21);

  const IndexExpr simp = e.simplified();
  EXPECT_TRUE(e == before);
  EXPECT_TRUE(simp == linear(1, 2));
}

TEST(IndexExpr, UntouchedSubtreesAreShared) {
  // (4*i + j) * (j + 1): substituting i rebuilds only the left spine.
  const IndexExpr orig = IndexExpr::mul(
      linear(1, 2), IndexExpr::add(IndexExpr::iter(2), IndexExpr::constant(1)));

  // Two expressions share a subtree when their children live at one address.
  const IndexExpr sub = orig.substitute(1, IndexExpr::iter(3));
  EXPECT_NE(&sub.lhs(), &orig.lhs());
  EXPECT_NE(&sub.lhs().lhs(), &orig.lhs().lhs());
  EXPECT_EQ(&sub.rhs().lhs(), &orig.rhs().lhs());

  // No occurrence: the result is the input itself, sharing its children.
  const IndexExpr none = orig.substitute(9, IndexExpr::iter(3));
  EXPECT_EQ(&none.lhs(), &orig.lhs());

  // Nothing folds: the same.
  const IndexExpr simp = orig.simplified();
  EXPECT_EQ(&simp.lhs(), &orig.lhs());

  // A fold inside one child rebuilds that child only.
  const IndexExpr partly = IndexExpr::add(
      IndexExpr::mul(IndexExpr::iter(1), IndexExpr::constant(1)), orig.rhs());
  const IndexExpr folded = partly.simplified();
  EXPECT_TRUE(folded.lhs() == IndexExpr::iter(1));
  EXPECT_EQ(&folded.rhs().lhs(), &partly.rhs().lhs());
}

TEST(IndexExpr, EqualityAcrossSharedAndRebuiltTrees) {
  const IndexExpr orig = IndexExpr::sub(linear(1, 2), linear(2, 1));
  const IndexExpr shared = orig;
  const IndexExpr rebuilt = IndexExpr::sub(linear(1, 2), linear(2, 1));
  const IndexExpr roundTrip =
      orig.substitute(1, IndexExpr::iter(8)).substitute(8, IndexExpr::iter(1));
  EXPECT_TRUE(shared == orig);
  EXPECT_TRUE(rebuilt == orig);
  EXPECT_TRUE(roundTrip == orig);
  EXPECT_NE(&roundTrip.lhs(), &orig.lhs());
  EXPECT_FALSE(orig.substitute(1, IndexExpr::iter(8)) == orig);
  EXPECT_FALSE(IndexExpr::add(linear(1, 2), linear(2, 1)) == orig);
}

// Builds `C[4*i + j] = A[(4*i + j) / 2] + (i - j)` under two nested scopes.
Program sharedSubtreeProgram() {
  Builder b("shared_subtrees");
  b.buffer("A", DType::F32, {32});
  b.buffer("C", DType::F32, {32});
  b.input("A");
  b.output("C");
  b.beginScope(4);
  b.beginScope(4);
  const IndexExpr flat = IndexExpr::add(IndexExpr::mul(IndexExpr::constant(4), b.it(0)), b.it(1));
  b.op(OpCode::Add, b.at("C", {flat}),
       {Builder::arr(b.at("A", {IndexExpr::div(flat, IndexExpr::constant(2))})),
        Builder::iv(IndexExpr::sub(b.it(0), b.it(1)))});
  b.endScope();
  b.endScope();
  return b.finish();
}

std::vector<IndexExpr> allIndexExprs(const Node& root) {
  std::vector<IndexExpr> out;
  for (const Node* op : collectOps(root)) {
    out.insert(out.end(), op->out.idx.begin(), op->out.idx.end());
    for (const Operand& in : op->ins) {
      if (in.kind == Operand::Kind::Array)
        out.insert(out.end(), in.access.idx.begin(), in.access.idx.end());
      if (in.kind == Operand::Kind::Iter) out.push_back(in.iter_expr);
    }
  }
  return out;
}

TEST(IndexExpr, ConcurrentCopiesOfSharedSubtrees) {
  const Program p = sharedSubtreeProgram();
  const std::vector<IndexExpr> reference = allIndexExprs(sharedSubtreeProgram().root);
  const std::vector<const Node*> scopes = collectScopes(p.root);
  ASSERT_EQ(scopes.size(), 2u);
  const NodeId outer = scopes[0]->id;
  const NodeId inner = scopes[1]->id;

  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        Program copy = p;  // shares every index-expression subtree with p
        substituteIter(copy.root, (r + t) % 2 ? outer : inner,
                       IndexExpr::add(IndexExpr::iter(inner), IndexExpr::constant(t)));
        std::vector<IndexExpr> exprs = allIndexExprs(p.root);
        for (std::size_t k = 0; k < exprs.size(); ++k) {
          const IndexExpr dropped = exprs[k].substitute(outer, IndexExpr::constant(r));
          if (!(exprs[k] == reference[k])) ++mismatches[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  EXPECT_EQ(allIndexExprs(p.root), reference);
}

}  // namespace
}  // namespace perfdojo::ir
