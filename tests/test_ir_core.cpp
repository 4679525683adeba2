#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/canonical.h"
#include "ir/walk.h"
#include "support/common.h"

namespace perfdojo::ir {
namespace {

Program twoLoop() {
  Builder b("k");
  b.buffer("x", DType::F32, {4, 8}).buffer("y", DType::F32, {4, 8});
  b.input("x").output("y");
  b.beginScope(4);
  b.beginScope(8);
  b.op(OpCode::Relu, b.atDepths("y", {0, 1}),
       {Builder::arr(b.atDepths("x", {0, 1}))});
  b.endScope().endScope();
  return b.finish();
}

TEST(Node, ArityChecked) {
  Access out;
  out.array = "x";
  EXPECT_THROW(Node::opNode(5, OpCode::Add, out, {Operand::constant(1)}), Error);
}

TEST(Node, ScopeExtentChecked) { EXPECT_THROW(Node::scope(1, 0), Error); }

TEST(Program, ValidatePasses) {
  EXPECT_NO_THROW(twoLoop().validate());
}

TEST(Program, ValidateCatchesUnknownArray) {
  Program p = twoLoop();
  collectOps(p.root)[0]->out.array = "nope";
  EXPECT_THROW(p.validate(), Error);
}

TEST(Program, ValidateCatchesRankMismatch) {
  Program p = twoLoop();
  collectOps(p.root)[0]->out.idx.pop_back();
  EXPECT_THROW(p.validate(), Error);
}

TEST(Program, ValidateCatchesEscapedIterator) {
  Program p = twoLoop();
  // Point an index at a non-enclosing (fresh) scope id.
  collectOps(p.root)[0]->out.idx[0] = IndexExpr::iter(999);
  p.next_id = 1000;
  EXPECT_THROW(p.validate(), Error);
}

TEST(Program, ValidateCatchesDuplicateIds) {
  Program p = twoLoop();
  auto scopes = collectScopes(p.root);
  scopes[1]->id = scopes[0]->id;
  EXPECT_THROW(p.validate(), Error);
}

/// twoLoop()'s only op.
Node* theOp(Program& p) { return collectOps(p.root)[0]; }

TEST(Program, ValidateMessagesGolden) {
  // One malformed twoLoop() per `validate:` message, each pinned to its
  // exact text: the iterator message in all three operand contexts, and the
  // node ids and names the messages print. twoLoop() numbers the root 1,
  // the loops 2 and 3 and the op 4, and leaves next_id at 5.
  struct Case {
    const char* name;
    void (*mutate)(Program&);
    const char* what;
  };
  const Case cases[] = {
      {"invalid id", [](Program& p) { theOp(p)->id = kInvalidNode; },
       "validate: node with invalid id"},
      {"duplicate id",
       [](Program& p) { theOp(p)->id = 2; },
       "validate: duplicate node id 2"},
      {"id past next_id", [](Program& p) { p.next_id = 4; },
       "validate: node id >= next_id"},
      {"output iterator",
       [](Program& p) {
         theOp(p)->out.idx[0] = IndexExpr::iter(999);
         p.next_id = 1000;
       },
       "validate: output of op 4 references iterator 999 which is not an "
       "enclosing scope"},
      {"input iterator",
       [](Program& p) {
         theOp(p)->ins[0].access.idx[1] = IndexExpr::iter(999);
         p.next_id = 1000;
       },
       "validate: input of op 4 references iterator 999 which is not an "
       "enclosing scope"},
      {"iter operand iterator",
       [](Program& p) {
         theOp(p)->ins[0] = Operand::iter(IndexExpr::iter(999));
         p.next_id = 1000;
       },
       "validate: iter operand of op 4 references iterator 999 which is not "
       "an enclosing scope"},
      {"unknown array", [](Program& p) { theOp(p)->out.array = "nope"; },
       "validate: output of op 4 unknown array 'nope'"},
      {"rank mismatch",
       [](Program& p) { theOp(p)->ins[0].access.idx.pop_back(); },
       "validate: input of op 4 rank mismatch for array 'x'"},
      {"scope extent", [](Program& p) { collectScopes(p.root)[1]->extent = 0; },
       "validate: scope extent must be >= 1"},
      {"op children",
       [](Program& p) { theOp(p)->children.push_back(Node::scope(9, 2)); },
       "validate: op node with children"},
      {"op arity",
       [](Program& p) { theOp(p)->ins.push_back(Operand::constant(1.0)); },
       "validate: op arity mismatch"},
      {"empty buffer name", [](Program& p) { p.buffers[0].name.clear(); },
       "validate: buffer with empty name"},
      {"mask size",
       [](Program& p) { p.buffers[0].materialized.pop_back(); },
       "validate: buffer 'x' materialized mask size mismatch"},
      {"no arrays", [](Program& p) { p.buffers[0].arrays.clear(); },
       "validate: buffer 'x' has no arrays"},
      {"array in two buffers",
       [](Program& p) { p.buffers[1].arrays.push_back("x"); },
       "validate: array 'x' declared in multiple buffers"},
      {"dim < 1", [](Program& p) { p.buffers[1].shape[0] = 0; },
       "validate: buffer 'y' with dim < 1"},
      {"undeclared input", [](Program& p) { p.inputs.push_back("z"); },
       "validate: undeclared input array 'z'"},
      {"undeclared output", [](Program& p) { p.outputs.push_back("z"); },
       "validate: undeclared output array 'z'"},
      {"external reused dim",
       [](Program& p) { p.buffers[1].materialized[0] = false; },
       "validate: external buffer 'y' has reused dim"},
      {"root not a scope", [](Program& p) { p.root.kind = NodeKind::Op; },
       "validate: root must be a scope"},
      {"root extent", [](Program& p) { p.root.extent = 4; },
       "validate: root scope must have extent 1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Program p = twoLoop();
    c.mutate(p);
    try {
      p.validate();
      ADD_FAILURE() << "validate() accepted the program";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
  }
}

TEST(Program, FlopCount) {
  Program p = twoLoop();
  EXPECT_EQ(p.flopCount(), 4 * 8);  // one relu per element
}

TEST(Program, BufferLookups) {
  Program p = twoLoop();
  EXPECT_NE(p.findBuffer("x"), nullptr);
  EXPECT_EQ(p.findBuffer("zz"), nullptr);
  EXPECT_EQ(p.bufferOfArray("y")->name, "y");
  EXPECT_TRUE(p.isInput("x"));
  EXPECT_TRUE(p.isOutput("y"));
  EXPECT_FALSE(p.isExternal("nothing"));
}

TEST(Buffer, StoredElementsRespectsReuse) {
  Buffer b;
  b.name = "t";
  b.shape = {10, 20};
  b.materialized = {false, true};
  EXPECT_EQ(b.storedElements(), 20);
  EXPECT_EQ(b.logicalElements(), 200);
}

TEST(Walk, FindAndParent) {
  Program p = twoLoop();
  auto scopes = collectScopes(p.root);
  ASSERT_EQ(scopes.size(), 2u);
  const Node* inner = scopes[1];
  EXPECT_EQ(findParent(p.root, inner->id)->id, scopes[0]->id);
  EXPECT_EQ(findNode(p.root, inner->id), inner);
  EXPECT_EQ(findNode(p.root, 12345), nullptr);
}

TEST(Walk, EnclosingScopesAndDepth) {
  Program p = twoLoop();
  auto ops = collectOps(p.root);
  ASSERT_EQ(ops.size(), 1u);
  auto chain = enclosingScopes(p.root, ops[0]->id);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(scopeDepthFor(p.root, ops[0]->id, chain[0]), 0);
  EXPECT_EQ(scopeDepthFor(p.root, ops[0]->id, chain[1]), 1);
}

TEST(Walk, ArraysReadWritten) {
  Program p = twoLoop();
  EXPECT_EQ(arraysRead(p.root), std::vector<std::string>{"x"});
  EXPECT_EQ(arraysWritten(p.root), std::vector<std::string>{"y"});
}

TEST(Walk, SubtreeUsesIter) {
  Program p = twoLoop();
  auto scopes = collectScopes(p.root);
  EXPECT_TRUE(subtreeUsesIter(p.root, scopes[0]->id));
  EXPECT_TRUE(subtreeUsesIter(p.root, scopes[1]->id));
  EXPECT_FALSE(subtreeUsesIter(p.root, 999));
}

TEST(Canonical, EqualModuloIds) {
  Program a = twoLoop();
  Program b = twoLoop();
  // Different construction sessions assign identical ids here, so force a
  // divergence by rebuilding b with an extra throwaway id.
  b.next_id += 10;
  EXPECT_TRUE(canonicallyEqual(a, b));
  EXPECT_EQ(canonicalHash(a), canonicalHash(b));
}

TEST(Canonical, DetectsDifferences) {
  Program a = twoLoop();
  Program b = twoLoop();
  collectScopes(b.root)[1]->anno = LoopAnno::Unroll;
  EXPECT_FALSE(canonicallyEqual(a, b));
}

TEST(Builder, RejectsUnclosedScopes) {
  Builder b("k");
  b.buffer("x", DType::F32, {2});
  b.beginScope(2);
  EXPECT_THROW(b.finish(), Error);
}

TEST(Builder, ItDepthRange) {
  Builder b("k");
  EXPECT_THROW(b.it(0), Error);
}

}  // namespace
}  // namespace perfdojo::ir
