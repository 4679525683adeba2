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
#include <vector>

#include "ir/program.h"

namespace perfdojo::ir {

/// Full program: header + tree.
std::string printProgram(const Program& p);

/// Tree only (no buffer header); useful for diffs and embeddings.
std::string printTree(const Program& p);

// The append renderers below are the one rendering path: printProgram,
// printTree, canonicalText and the canonical arena all append into a
// caller-owned buffer, so a caller that reuses its buffer renders without
// allocating once the buffer has grown to size.

/// Appends one node's own line, newline-terminated, with `chain` = the ids
/// of the scopes enclosing `n` (outermost first, excluding `n` itself).
/// printTree is exactly the pre-order concatenation of these lines; the
/// canonical arena relies on that byte identity when splicing cached lines.
/// Throws Error if an iterator references a scope outside `chain`; `out`
/// may then hold a partial line.
void appendNodeLine(std::string& out, const Node& n, int depth,
                    const std::vector<NodeId>& chain);

/// Appends printTree(p).
void appendTree(std::string& out, const Program& p);

/// Appends the program header: kernel line, buffer lines (in declaration
/// order, or by name when `sort_buffers`), in/out lines and a blank line.
void appendHeader(std::string& out, const Program& p, bool sort_buffers);

/// Same, sorting through the caller's `order` scratch, so that a caller
/// reusing `out` and `order` renders the header without allocating.
void appendHeader(std::string& out, const Program& p, bool sort_buffers,
                  std::vector<std::size_t>& order);

}  // namespace perfdojo::ir
