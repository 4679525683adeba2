// Dependency analysis underpinning transformation applicability checks.
//
// All checks are *conservative*: they may reject a legal transformation but
// never accept an illegal one. Aliasing is resolved at buffer granularity:
// two arrays in the same buffer always conflict; indices of the same array
// are compared only at materialized dimensions (non-materialized dims share
// storage, so they alias by construction).
//
// The predicates read OpInfos whose accesses already carry their resolved
// buffers, so none of them walks the tree or looks a buffer up by name:
// enumeration takes the spans from an ir::ProgramIndex, one per state.
#pragma once

#include <span>
#include <vector>

#include "ir/program_index.h"

namespace perfdojo::transform {

using ir::AccessRef;
using ir::OpInfo;

/// All OpInfos in a subtree of `p`, execution order, found by walking it —
/// the reference ProgramIndex::ops is checked against.
std::vector<OpInfo> collectOpInfos(const ir::Program& p, const ir::Node& root);

/// Whether two accesses may touch the same memory. Conservative.
bool mayAlias(const AccessRef& a, const AccessRef& b);

/// Whether two accesses certainly touch the same element *in the same
/// iteration*, treating `iter_a` (in a's expressions) and `iter_b` (in b's)
/// as the same iterator. Used by fusion/fission legality: a cross-loop
/// dependency is harmless iff producer and consumer agree on the iteration.
bool sameElementUnderIterMap(const AccessRef& a, ir::NodeId iter_a,
                             const AccessRef& b, ir::NodeId iter_b);

/// Legality of executing bodies A and B (their ops, `ops_a` and `ops_b`)
/// fused under a common iterator (iter_a in A, iter_b in B): every cross
/// conflict (write/read, read/write, write/write on aliasing memory) must be
/// a same-iteration, same-element dependency. This single predicate serves
/// join_scopes and fission_scope (fission of S into A;B is legal iff fusing
/// A and B back is).
bool fusionLegal(std::span<const OpInfo> ops_a, ir::NodeId iter_a,
                 std::span<const OpInfo> ops_b, ir::NodeId iter_b);

/// Legality of swapping two adjacent siblings with ops `ops_a` and `ops_b`:
/// no write of one may alias any access of the other.
bool opsSwappable(std::span<const OpInfo> ops_a, std::span<const OpInfo> ops_b);

/// Legality of interchanging perfectly nested scopes `outer` and `inner`,
/// given the ops under `inner`: every write in the nest must either (a)
/// address distinct elements for distinct (outer, inner) pairs with all
/// same-buffer reads agreeing on the index, or (b) be an accumulation whose
/// combiner is associative+commutative.
bool interchangeLegal(std::span<const OpInfo> ops, ir::NodeId outer,
                      ir::NodeId inner);

/// Independence of a scope's iterations (required by parallelize / GPU
/// mapping), given the ops under it: every write addresses elements that
/// differ across iterations of `scope`, and every read of an
/// internally-written buffer matches the write index in the dimensions that
/// use the scope's iterator.
bool iterationsIndependent(std::span<const OpInfo> ops, ir::NodeId scope);

}  // namespace perfdojo::transform
