// Human-readable textual format for PerfDojo programs (Figure 3b).
//
// Layout:
//   kernel <name>
//   buffer <name> <dtype> [d1, d2:N, ...] <space> [-> a, b]   (:N = reused dim)
//   in <array> ...
//   out <array> ...
//   <blank line>
//   <extent>[:anno]
//   | <extent>[:anno]
//   | | out[{0},{1}] = mul x[{0},{1}] y[{0},{1}]
//
// `{k}` refers to the iterator of the k-th enclosing scope of the operation
// (0 = outermost), exactly as in the paper. The printer and parser round-trip:
// parse(print(p)) is canonically identical to p.
#pragma once

#include <string>

#include "ir/program.h"

namespace perfdojo::ir {

/// Full program: header + tree.
std::string printProgram(const Program& p);

/// Tree only (no buffer header); useful for diffs and embeddings.
std::string printTree(const Program& p);

/// One node's own line, newline-terminated, with `chain` = the ids of the
/// scopes enclosing `n` (outermost first, excluding `n` itself). printTree is
/// exactly the pre-order concatenation of these lines; the incremental
/// canonical hasher relies on that byte identity when reusing cached lines.
std::string printNodeLine(const Node& n, int depth,
                          const std::vector<NodeId>& chain);

/// One buffer declaration line, newline-terminated, exactly as printProgram
/// renders it.
std::string printBufferLine(const Buffer& b);

}  // namespace perfdojo::ir
