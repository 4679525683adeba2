// Canonical form: a text rendering that is invariant under NodeId renaming,
// used to detect when two transformation paths reach the same program (the
// transformation graph of Figure 4 is a DAG over canonical programs).
#pragma once

#include <cstdint>
#include <string>

#include "ir/program.h"

namespace perfdojo::ir {

/// Canonical text: printProgram with buffers sorted by name. Iterators are
/// already depth-relative in the textual form, so ids do not leak into it.
std::string canonicalText(const Program& p);

/// 64-bit hash of the canonical text.
std::uint64_t canonicalHash(const Program& p);

/// Structural equality modulo node ids.
bool canonicallyEqual(const Program& a, const Program& b);

}  // namespace perfdojo::ir
