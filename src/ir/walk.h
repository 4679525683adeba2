// Tree-walking utilities: lookup by id, parent maps, ancestor chains,
// op enumeration. All lookups are O(tree) — fine for one-off questions
// (applying one transform, describing a location). Hot paths that ask many
// questions about one program state, above all the transforms' applicable
// action enumeration, read an ir::ProgramIndex (ir/program_index.h)
// instead: one pre-order walk per state, then O(1) lookups.
#pragma once

#include <functional>
#include <vector>

#include "ir/program.h"

namespace perfdojo::ir {

/// Finds a node by id anywhere in the tree; nullptr if absent.
const Node* findNode(const Node& root, NodeId id);
Node* findNode(Node& root, NodeId id);

/// Finds the parent of the node with the given id; nullptr if the node is the
/// root or absent.
const Node* findParent(const Node& root, NodeId id);
Node* findParent(Node& root, NodeId id);

/// Index of the child with the given id within parent.children; -1 if absent.
int childIndex(const Node& parent, NodeId id);

/// Scope ids from the root (exclusive) down to the node (exclusive):
/// the chain of iteration scopes enclosing `id`. Empty if id is a direct
/// child of the root.
std::vector<NodeId> enclosingScopes(const Node& root, NodeId id);

/// Depth of scope `scope` in the ancestor chain of node `of` (0 = outermost,
/// per the paper's `{depth}` notation). Returns -1 if not an ancestor.
int scopeDepthFor(const Node& root, NodeId of, NodeId scope);

/// All op nodes in execution order.
std::vector<const Node*> collectOps(const Node& root);
std::vector<Node*> collectOps(Node& root);

/// All scope nodes in pre-order (excluding the root container).
std::vector<const Node*> collectScopes(const Node& root);
std::vector<Node*> collectScopes(Node& root);

/// Scope nodes in pre-order within the subtree rooted at `id`, including the
/// subtree root itself when it is a scope other than the root container —
/// exactly the subsequence of collectScopes(root) lying inside that subtree.
/// Empty if `id` is absent. The reference ProgramIndex::forEachScope is
/// checked against.
std::vector<const Node*> collectScopesWithin(const Node& root, NodeId id);

/// Visits every node (pre-order, including root).
void visit(const Node& root, const std::function<void(const Node&)>& fn);
void visitMut(Node& root, const std::function<void(Node&)>& fn);

/// Applies fn to every IndexExpr in the subtree (op outputs, array operands,
/// iterator operands), replacing each with the returned expression.
void rewriteIndexExprs(Node& root, const std::function<IndexExpr(const IndexExpr&)>& fn);

/// Substitutes iterator `from` with `repl` throughout the subtree.
void substituteIter(Node& root, NodeId from, const IndexExpr& repl);

/// True if any access or iterator operand in the subtree uses scope's iter.
bool subtreeUsesIter(const Node& root, NodeId scope);

/// Arrays read / written anywhere in the subtree.
std::vector<std::string> arraysRead(const Node& root);
std::vector<std::string> arraysWritten(const Node& root);

/// Counts nodes in the subtree.
std::size_t nodeCount(const Node& root);

}  // namespace perfdojo::ir
