#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "support/common.h"

namespace perfdojo::ir {
namespace {

TEST(Printer, SoftmaxTextShape) {
  const Program p = kernels::makeSoftmax(4, 8);
  const std::string text = printProgram(p);
  EXPECT_NE(text.find("kernel softmax"), std::string::npos);
  EXPECT_NE(text.find("buffer x f32 [4, 8] heap"), std::string::npos);
  EXPECT_NE(text.find("mx[{0}] = max mx[{0}] x[{0},{1}]"), std::string::npos);
  EXPECT_NE(text.find("mx[{0}] = mov -inf"), std::string::npos);
  EXPECT_NE(text.find("| "), std::string::npos);
}

// --- Golden bytes -----------------------------------------------------------
// The canonical text keys every memo table, witness and certificate, so the
// printer's exact bytes are pinned here; a parse round-trip alone would pass
// even if the parenthesization changed.

using K = IndexExpr::Kind;

std::string nodeLine(const Node& n, int depth,
                     const std::vector<NodeId>& chain) {
  std::string out;
  appendNodeLine(out, n, depth, chain);
  return out;
}

IndexExpr it(NodeId s) { return IndexExpr::iter(s); }
IndexExpr cst(std::int64_t v) { return IndexExpr::constant(v); }
IndexExpr bin(K k, IndexExpr a, IndexExpr b) {
  return IndexExpr::binary(k, std::move(a), std::move(b));
}

/// One op line `o[e] = mov 0` under scopes 1, 2, 3 ({0}, {1}, {2}), with the
/// depth prefix stripped, so each case reads as the expression alone.
std::string exprLine(IndexExpr e) {
  const Node n = Node::opNode(9, OpCode::Mov, Access{"o", {std::move(e)}},
                              {Operand::constant(0.0)});
  const std::string line = nodeLine(n, 3, {1, 2, 3});
  const std::string prefix = "| | | o[";
  const std::string suffix = "] = mov 0\n";
  EXPECT_EQ(line.substr(0, prefix.size()), prefix) << line;
  EXPECT_EQ(line.substr(line.size() - suffix.size()), suffix) << line;
  return line.substr(prefix.size(),
                     line.size() - prefix.size() - suffix.size());
}

TEST(PrinterGolden, Parenthesization) {
  // A looser child is parenthesized on either side.
  EXPECT_EQ(exprLine(bin(K::Mul, bin(K::Add, it(1), it(2)), it(3))),
            "({0}+{1})*{2}");
  EXPECT_EQ(exprLine(bin(K::Mul, it(3), bin(K::Add, it(1), it(2)))),
            "{2}*({0}+{1})");
  EXPECT_EQ(exprLine(bin(K::Div, bin(K::Sub, it(1), it(2)), cst(4))),
            "({0}-{1})/4");
  EXPECT_EQ(exprLine(bin(K::Mod, it(1), bin(K::Sub, it(2), cst(1)))),
            "{0}%({1}-1)");
  // A tighter child never is.
  EXPECT_EQ(exprLine(bin(K::Add, bin(K::Mul, it(1), cst(4)), it(2))),
            "{0}*4+{1}");
  EXPECT_EQ(exprLine(bin(K::Sub, it(1), bin(K::Mod, it(2), cst(3)))),
            "{0}-{1}%3");
  // Equal precedence on the left: never parenthesized.
  EXPECT_EQ(exprLine(bin(K::Sub, bin(K::Sub, it(1), it(2)), it(3))),
            "{0}-{1}-{2}");
  EXPECT_EQ(exprLine(bin(K::Div, bin(K::Mul, it(1), it(2)), it(3))),
            "{0}*{1}/{2}");
  // Equal precedence on the right: parenthesized under -, /, %.
  EXPECT_EQ(exprLine(bin(K::Sub, it(1), bin(K::Sub, it(2), it(3)))),
            "{0}-({1}-{2})");
  EXPECT_EQ(exprLine(bin(K::Sub, it(1), bin(K::Add, it(2), it(3)))),
            "{0}-({1}+{2})");
  EXPECT_EQ(exprLine(bin(K::Div, it(1), bin(K::Mul, it(2), it(3)))),
            "{0}/({1}*{2})");
  EXPECT_EQ(exprLine(bin(K::Mod, it(1), bin(K::Div, it(2), it(3)))),
            "{0}%({1}/{2})");
  EXPECT_EQ(exprLine(bin(K::Div, it(1), bin(K::Mod, it(2), it(3)))),
            "{0}/({1}%{2})");
  // ... and not under + or *, whatever the child's operator.
  EXPECT_EQ(exprLine(bin(K::Add, it(1), bin(K::Add, it(2), it(3)))),
            "{0}+{1}+{2}");
  EXPECT_EQ(exprLine(bin(K::Add, it(1), bin(K::Sub, it(2), it(3)))),
            "{0}+{1}-{2}");
  EXPECT_EQ(exprLine(bin(K::Mul, it(1), bin(K::Mul, it(2), it(3)))),
            "{0}*{1}*{2}");
  EXPECT_EQ(exprLine(bin(K::Mul, it(1), bin(K::Div, it(2), it(3)))),
            "{0}*{1}/{2}");
  EXPECT_EQ(exprLine(bin(K::Mul, it(1), bin(K::Mod, it(2), it(3)))),
            "{0}*{1}%{2}");
  // Nesting composes.
  EXPECT_EQ(exprLine(bin(K::Mod,
                         bin(K::Add, bin(K::Mul, it(1), cst(8)), it(2)),
                         bin(K::Sub, cst(16), bin(K::Div, it(3), cst(2))))),
            "({0}*8+{1})%(16-{2}/2)");
}

TEST(PrinterGolden, IndexConstants) {
  EXPECT_EQ(exprLine(cst(0)), "0");
  EXPECT_EQ(exprLine(cst(-3)), "-3");
  EXPECT_EQ(exprLine(bin(K::Add, it(1), cst(-3))), "{0}+-3");
  EXPECT_EQ(exprLine(bin(K::Sub, cst(-1), cst(-2))), "-1--2");
  EXPECT_EQ(exprLine(cst(std::numeric_limits<std::int64_t>::min())),
            "-9223372036854775808");
  EXPECT_EQ(exprLine(cst(std::numeric_limits<std::int64_t>::max())),
            "9223372036854775807");
  EXPECT_EQ(exprLine(bin(K::Mul, cst(1234567890123), it(3))),
            "1234567890123*{2}");
}

TEST(PrinterGolden, OperandsAndOps) {
  const std::vector<NodeId> chain = {1, 2};
  auto line = [&](OpCode op, std::vector<Operand> ins) {
    return nodeLine(
        Node::opNode(9, op, Access{"y", {it(1), it(2)}}, std::move(ins)), 2,
        chain);
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(line(OpCode::Mov, {Operand::constant(-inf)}),
            "| | y[{0},{1}] = mov -inf\n");
  EXPECT_EQ(line(OpCode::Min, {Operand::constant(inf),
                               Operand::array(Access{"x", {it(2)}})}),
            "| | y[{0},{1}] = min inf x[{1}]\n");
  EXPECT_EQ(line(OpCode::Mul, {Operand::constant(0.1),
                               Operand::constant(1.0 / 3.0)}),
            "| | y[{0},{1}] = mul 0.10000000000000001 0.33333333333333331\n");
  EXPECT_EQ(line(OpCode::Add, {Operand::constant(2.0),
                               Operand::constant(-0.5)}),
            "| | y[{0},{1}] = add 2 -0.5\n");
  EXPECT_EQ(line(OpCode::Fma, {Operand::constant(1e300),
                               Operand::constant(1e-7),
                               Operand::constant(-0.0)}),
            "| | y[{0},{1}] = fma 1.0000000000000001e+300 9.9999999999999995e-08 "
            "-0\n");
  // Iterator-value operands print as bare expressions, parenthesized by the
  // same rules as indices.
  EXPECT_EQ(line(OpCode::Mul, {Operand::array(Access{"x", {it(1)}}),
                               Operand::iter(it(2))}),
            "| | y[{0},{1}] = mul x[{0}] {1}\n");
  EXPECT_EQ(line(OpCode::Add,
                 {Operand::iter(bin(K::Mul, bin(K::Add, it(1), cst(1)), it(2))),
                  Operand::iter(cst(-7))}),
            "| | y[{0},{1}] = add ({0}+1)*{1} -7\n");
  // A scalar (rank-0) access and a unary op.
  EXPECT_EQ(nodeLine(Node::opNode(9, OpCode::Exp, Access{"s", {}},
                                  {Operand::array(Access{"t", {}})}),
                     0, {}),
            "s[] = exp t[]\n");
}

TEST(PrinterGolden, ScopeLinesAndDepthPrefixes) {
  EXPECT_EQ(nodeLine(Node::scope(1, 64), 0, {}), "64\n");
  EXPECT_EQ(nodeLine(Node::scope(1, 8, LoopAnno::Parallel), 1, {}),
            "| 8:p\n");
  EXPECT_EQ(nodeLine(Node::scope(1, 4, LoopAnno::Vector), 2, {}),
            "| | 4:v\n");
  const std::pair<LoopAnno, const char*> annos[] = {
      {LoopAnno::Unroll, ":u"},  {LoopAnno::GpuGrid, ":g"},
      {LoopAnno::GpuBlock, ":b"}, {LoopAnno::GpuWarp, ":w"},
      {LoopAnno::Ssr, ":s"},     {LoopAnno::Frep, ":f"}};
  for (const auto& [anno, suffix] : annos)
    EXPECT_EQ(nodeLine(Node::scope(1, 16, anno), 3, {}),
              std::string("| | | 16") + suffix + "\n");
  EXPECT_EQ(nodeLine(Node::scope(1, 9223372036854775807LL), 0, {}),
            "9223372036854775807\n");
}

TEST(PrinterGolden, WholeProgram) {
  Program p = makeProgram("k");
  Buffer x;
  x.name = "x";
  x.shape = {4, 8};
  x.materialized = {true, true};
  x.arrays = {"x"};
  Buffer t;
  t.name = "t";
  t.dtype = DType::F64;
  t.shape = {4, 8};
  t.materialized = {true, false};
  t.space = MemSpace::Stack;
  t.arrays = {"a", "b"};
  p.buffers = {x, t};
  p.inputs = {"x"};
  p.outputs = {"b"};
  Node outer = Node::scope(p.freshId(), 4, LoopAnno::Parallel);
  Node inner = Node::scope(p.freshId(), 8, LoopAnno::Vector);
  inner.children.push_back(Node::opNode(
      p.freshId(), OpCode::Mov, Access{"a", {it(outer.id), it(inner.id)}},
      {Operand::array(Access{"x", {it(outer.id), it(inner.id)}})}));
  inner.children.push_back(Node::opNode(
      p.freshId(), OpCode::Mul, Access{"b", {it(outer.id), it(inner.id)}},
      {Operand::array(Access{"a", {it(outer.id), it(inner.id)}}),
       Operand::iter(bin(K::Add, it(outer.id), it(inner.id)))}));
  outer.children.push_back(std::move(inner));
  p.root.children.push_back(std::move(outer));
  p.root.children.push_back(Node::opNode(
      p.freshId(), OpCode::Mov, Access{"b", {cst(0), cst(0)}},
      {Operand::constant(1.5)}));
  const std::string tree =
      "4:p\n"
      "| 8:v\n"
      "| | a[{0},{1}] = mov x[{0},{1}]\n"
      "| | b[{0},{1}] = mul a[{0},{1}] {0}+{1}\n"
      "b[0,0] = mov 1.5\n";
  EXPECT_EQ(printTree(p), tree);
  EXPECT_EQ(printProgram(p),
            "kernel k\n"
            "buffer x f32 [4, 8] heap\n"
            "buffer t f64 [4, 8:N] stack -> a, b\n"
            "in x\n"
            "out b\n"
            "\n" +
                tree);
  // The canonical text sorts buffers by name; the tree bytes are the same.
  EXPECT_EQ(canonicalText(p),
            "kernel k\n"
            "buffer t f64 [4, 8:N] stack -> a, b\n"
            "buffer x f32 [4, 8] heap\n"
            "in x\n"
            "out b\n"
            "\n" +
                tree);
}

TEST(PrinterGolden, IteratorOutsideTheChainNamesTheScope) {
  const Node n = Node::opNode(9, OpCode::Mov, Access{"o", {it(9999)}},
                              {Operand::constant(0.0)});
  try {
    nodeLine(n, 1, {1});
    ADD_FAILURE() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "printProgram: iterator references scope 9999 that is not "
                 "an ancestor of the operation");
  }
}

TEST(Parser, RoundTripsEveryTable3Kernel) {
  for (const auto& k : kernels::table3()) {
    const Program p = k.build_small();
    const std::string text = printProgram(p);
    const Program q = parseProgram(text);
    EXPECT_TRUE(canonicallyEqual(p, q)) << "kernel " << k.label;
  }
}

TEST(Parser, RoundTripsSnitchMicroKernels) {
  for (const auto& k : kernels::snitchMicro()) {
    const Program p = k.build_small();
    EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))))
        << "kernel " << k.label;
  }
}

TEST(Parser, ParsesAnnotations) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [4, 8] heap\n"
      "buffer y f32 [4, 8] heap\n"
      "in x\nout y\n\n"
      "4:p\n"
      "| 8:v\n"
      "| | y[{0},{1}] = relu x[{0},{1}]\n";
  const Program p = parseProgram(text);
  auto scopes = collectScopes(p.root);
  ASSERT_EQ(scopes.size(), 2u);
  EXPECT_EQ(scopes[0]->anno, LoopAnno::Parallel);
  EXPECT_EQ(scopes[1]->anno, LoopAnno::Vector);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, ParsesReusedDimAndSharedBuffers) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [4] heap\n"
      "buffer t f32 [4:N] stack -> a, b\n"
      "buffer y f32 [4] heap\n"
      "in x\nout y\n\n"
      "4\n"
      "| a[{0}] = mov x[{0}]\n"
      "| b[{0}] = mul a[{0}] 2\n"
      "| y[{0}] = mov b[{0}]\n";
  const Program p = parseProgram(text);
  const Buffer* t = p.findBuffer("t");
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->materialized[0]);
  EXPECT_EQ(t->arrays.size(), 2u);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, ParsesAffineIndices) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [16] heap\n"
      "buffer y f32 [16] heap\n"
      "in x\nout y\n\n"
      "4\n"
      "| 4\n"
      "| | y[{0}*4+{1}] = mov x[{0}*4+{1}]\n";
  const Program p = parseProgram(text);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, ParsesDivMod) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [4, 4] heap\n"
      "buffer y f32 [4, 4] heap\n"
      "in x\nout y\n\n"
      "16\n"
      "| y[{0}/4,{0}%4] = mov x[{0}/4,{0}%4]\n";
  const Program p = parseProgram(text);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, IterValueOperand) {
  // "index as value" (Table 2): z[i] = x[i] * i
  const std::string text =
      "kernel k\n"
      "buffer x f32 [8] heap\n"
      "buffer z f32 [8] heap\n"
      "in x\nout z\n\n"
      "8\n"
      "| z[{0}] = mul x[{0}] {0}\n";
  const Program p = parseProgram(text);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

/// Asserts that parsing fails with a diagnostic containing `needle` — a
/// malformed program must produce a targeted Error, never a crash or a
/// generic message.
std::string parseDiagnostic(const std::string& text) {
  try {
    parseProgram(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parse failure for:\n" << text;
  return "";
}

TEST(Parser, RejectsBadDepth) {
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[{3}] = mov 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("iterator depth {3} out of range"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("nesting depth 1"), std::string::npos) << msg;
}

TEST(Parser, RejectsUnknownOp) {
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[{0}] = frobnicate 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("unknown op 'frobnicate'"), std::string::npos) << msg;
}

TEST(Parser, RejectsIndentJump) {
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| | x[{0}] = mov 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("indentation jumps by more than one level"),
            std::string::npos)
      << msg;
}

TEST(Parser, RejectsBadIndexExpression) {
  // A non-integer, non-iterator index: the cursor reports what it wanted.
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[$] = mov 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("expected integer"), std::string::npos) << msg;
}

TEST(Parser, RejectsUnknownDType) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f97 [8] heap\nin x\nout x\n\n8\n| x[{0}] = mov 0\n");
  EXPECT_NE(msg.find("unknown dtype 'f97'"), std::string::npos) << msg;
}

TEST(Parser, RejectsUnknownMemSpace) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] moon\nin x\nout x\n\n8\n| x[{0}] = mov 0\n");
  EXPECT_NE(msg.find("unknown memory space 'moon'"), std::string::npos) << msg;
}

TEST(Parser, RejectsEmptyTreeLine) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n8\n|\n");
  EXPECT_NE(msg.find("empty tree line"), std::string::npos) << msg;
}

TEST(Parser, RejectsAccessToUndeclaredBuffer) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| y[{0}] = mov x[{0}]\n");
  EXPECT_NE(msg.find("unknown array 'y'"), std::string::npos) << msg;
}

TEST(Parser, DiagnosticsCarryLineNumbers) {
  // The bad op is on line 7; the diagnostic must say so.
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[{0}] = frobnicate 0\n");
  EXPECT_NE(msg.find("line 7"), std::string::npos) << msg;
}

TEST(Parser, CommentsIgnored) {
  const std::string text =
      "kernel k\n"
      "# a comment\n"
      "buffer x f32 [8] heap\n"
      "in x\nout x\n\n"
      "8   # loop over elements\n"
      "| x[{0}] = mul x[{0}] 2  # double in place\n";
  EXPECT_NO_THROW(parseProgram(text));
}

TEST(Parser, TransformedProgramRoundTrips) {
  // reused dims + annotations + affine indices all at once.
  Program p = kernels::makeSoftmax(4, 8);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(canonicalText(p))));
}

}  // namespace
}  // namespace perfdojo::ir
