#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "ir/index_expr.h"
#include "ir/walk.h"
#include "support/common.h"
#include "support/rng.h"

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

/// The coefficient of `scope` in an affine expression.
std::int64_t coefOf(const IndexExpr& e, NodeId scope) {
  std::int64_t coef = 0;
  EXPECT_TRUE(e.affineCoef(scope, coef));
  return coef;
}

TEST(IndexExpr, AffineDecomposition) {
  // 2*i + j + 5
  auto e = IndexExpr::add(
      IndexExpr::add(IndexExpr::mul(IndexExpr::constant(2), IndexExpr::iter(1)),
                     IndexExpr::iter(2)),
      IndexExpr::constant(5));
  EXPECT_TRUE(e.isAffine());
  EXPECT_EQ(coefOf(e, 1), 2);
  EXPECT_EQ(coefOf(e, 2), 1);
  EXPECT_EQ(coefOf(e, 3), 0);  // absent iterator
  // The coefficient is added to what the caller passes in.
  std::int64_t coef = 10;
  ASSERT_TRUE(e.affineCoef(1, coef));
  EXPECT_EQ(coef, 12);
}

TEST(IndexExpr, AffineRejectsDivMod) {
  std::int64_t coef = 0;
  EXPECT_FALSE(IndexExpr::div(IndexExpr::iter(1), IndexExpr::constant(2))
                   .affineCoef(1, coef));
  EXPECT_FALSE(IndexExpr::mod(IndexExpr::iter(1), IndexExpr::constant(2))
                   .isAffine());
  // A product is affine only with a constant factor.
  EXPECT_FALSE(IndexExpr::mul(IndexExpr::iter(1), IndexExpr::iter(2)).isAffine());
}

TEST(IndexExpr, AffineSubtraction) {
  // i - j : coef(i)=1, coef(j)=-1; 2*i - (j - i) : coef(i)=3
  auto e = IndexExpr::sub(IndexExpr::iter(1), IndexExpr::iter(2));
  EXPECT_EQ(coefOf(e, 1), 1);
  EXPECT_EQ(coefOf(e, 2), -1);
  auto f = IndexExpr::sub(
      IndexExpr::mul(IndexExpr::constant(2), IndexExpr::iter(1)),
      IndexExpr::sub(IndexExpr::iter(2), IndexExpr::iter(1)));
  EXPECT_EQ(coefOf(f, 1), 3);
  EXPECT_EQ(coefOf(f, 2), -1);
}

/// A random expression over iterators 1..3 and small constants, `depth`
/// levels deep; every binary kind occurs.
IndexExpr randomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.bernoulli(0.25)) {
    if (rng.bernoulli(0.5)) return IndexExpr::iter(static_cast<NodeId>(1 + rng.uniform(3)));
    return IndexExpr::constant(static_cast<std::int64_t>(rng.uniform(5)) - 1);
  }
  const auto kind = static_cast<IndexExpr::Kind>(
      static_cast<int>(IndexExpr::Kind::Add) + static_cast<int>(rng.uniform(5)));
  return IndexExpr::binary(kind, randomExpr(rng, depth - 1),
                           randomExpr(rng, depth - 1));
}

/// Affinity by the definition: no division or modulo, and a constant
/// factor in every product.
bool referenceAffine(const IndexExpr& e) {
  switch (e.kind()) {
    case IndexExpr::Kind::Const:
    case IndexExpr::Kind::Iter:
      return true;
    case IndexExpr::Kind::Add:
    case IndexExpr::Kind::Sub:
      return referenceAffine(e.lhs()) && referenceAffine(e.rhs());
    case IndexExpr::Kind::Mul:
      return (e.lhs().isConst() && referenceAffine(e.rhs())) ||
             (e.rhs().isConst() && referenceAffine(e.lhs()));
    default:
      return false;
  }
}

TEST(IndexExpr, AffineCoefMatchesTheDefinition) {
  // For an affine expression f, the coefficient of iterator s is
  // f(s = 1, others 0) - f(0).
  Rng rng(7);
  int affine = 0;
  for (int i = 0; i < 4000; ++i) {
    const IndexExpr e = randomExpr(rng, 4);
    const bool want = referenceAffine(e);
    ASSERT_EQ(e.isAffine(), want) << "expression " << i;
    affine += want;
    for (NodeId scope = 1; scope <= 4; ++scope) {
      std::int64_t coef = 0;
      ASSERT_EQ(e.affineCoef(scope, coef), want) << "scope " << scope;
      if (!want) continue;
      const std::int64_t at0 = e.eval([](NodeId) -> std::int64_t { return 0; });
      const std::int64_t at1 = e.eval(
          [&](NodeId id) -> std::int64_t { return id == scope ? 1 : 0; });
      EXPECT_EQ(coef, at1 - at0) << "expression " << i << " scope " << scope;
    }
  }
  // Both verdicts occur often enough to mean something.
  EXPECT_GT(affine, 400);
  EXPECT_LT(affine, 3600);
}

/// simplified()'s rules written out as one bottom-up pass that always
/// rebuilds: the reference its copy-free fast path is checked against.
IndexExpr referenceSimplified(const IndexExpr& e) {
  using K = IndexExpr::Kind;
  if (e.isConst() || e.isIter()) return e;
  const IndexExpr a = referenceSimplified(e.lhs());
  const IndexExpr b = referenceSimplified(e.rhs());
  auto is = [](const IndexExpr& x, std::int64_t v) {
    return x.isConst() && x.constValue() == v;
  };
  if (a.isConst() && b.isConst()) {
    const std::int64_t x = a.constValue(), y = b.constValue();
    switch (e.kind()) {
      case K::Add: return IndexExpr::constant(x + y);
      case K::Sub: return IndexExpr::constant(x - y);
      case K::Mul: return IndexExpr::constant(x * y);
      case K::Div: return y != 0 ? IndexExpr::constant(x / y) : e;
      case K::Mod: return y != 0 ? IndexExpr::constant(x % y) : e;
      default: break;
    }
  }
  if (e.kind() == K::Add && is(a, 0)) return b;
  if (e.kind() == K::Add && is(b, 0)) return a;
  if (e.kind() == K::Sub && is(b, 0)) return a;
  if (e.kind() == K::Mul && is(a, 1)) return b;
  if (e.kind() == K::Mul && is(b, 1)) return a;
  if (e.kind() == K::Mul && (is(a, 0) || is(b, 0))) return IndexExpr::constant(0);
  if (e.kind() == K::Div && is(b, 1)) return a;
  return IndexExpr::binary(e.kind(), a, b);
}

TEST(IndexExpr, SimplifiedMatchesReferenceAndSharesWhatDoesNotFold) {
  Rng rng(11);
  int unchanged = 0;
  for (int i = 0; i < 4000; ++i) {
    const IndexExpr e = randomExpr(rng, 4);
    const IndexExpr want = referenceSimplified(e);
    const IndexExpr got = e.simplified();
    ASSERT_TRUE(got == want) << "expression " << i;
    // Nothing folded: the result is the input itself, children shared.
    if (want == e && e.kind() > IndexExpr::Kind::Iter) {
      ++unchanged;
      EXPECT_EQ(&got.lhs(), &e.lhs()) << "expression " << i;
    }
  }
  EXPECT_GT(unchanged, 400);
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
