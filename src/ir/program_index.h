// One analysis per program state: every fact the transforms' applicability
// predicates read about a program, gathered by a single pre-order walk.
//
// Enumerating the applicable actions of a state asks ~20 transforms the same
// questions about the same tree: where is node N, who is its parent, which
// annotated scopes enclose it, which ops live below it and what do they read
// and write, which buffer backs array A. Answered by walking from the root,
// each question is O(tree) and is asked millions of times per search run.
// A ProgramIndex answers them in O(1) (or O(answer)) instead:
//
//   * per NodeId: node, parent, child index, depth and pre-order interval
//     [pre, end) — a subtree is one contiguous range of the pre-order;
//   * per node: the annotations of its enclosing scopes and of the scopes in
//     its subtree, as bitmasks;
//   * every op's OpInfo, in pre-order (= execution order), so the ops of a
//     subtree or of a run of consecutive siblings are one contiguous span;
//     an OpInfo refers to the op's accesses and their resolved buffers;
//   * array name -> backing buffer.
//
// Lifetime: the index points into the program it was built from and is
// valid only while that program is alive and unmodified. Build one per
// program state, share it across every transform's enumeration of that
// state, and drop it before the program changes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/program.h"

namespace perfdojo::ir {

/// One array access of an op together with the buffer backing its array
/// (nullptr for an undeclared array).
struct AccessRef {
  const Access* access = nullptr;
  const Buffer* buffer = nullptr;
};

/// Flattened view of one operation's memory behaviour. Refers into the
/// program it was computed from.
struct OpInfo {
  const Node* op = nullptr;
  AccessRef write;
  /// True when the op is of accumulation form (see isAccumulation).
  bool is_accumulation = false;

  /// The array operands, in operand order.
  std::span<const AccessRef> reads() const { return {read_slots.data(), n_reads}; }

  std::array<AccessRef, 3> read_slots{};  // no opcode has more operands
  std::uint8_t n_reads = 0;
};

/// True when `op` is of accumulation form: the output element also appears
/// as an input with an identical access, and the opcode is associative +
/// commutative (add/mul/max/min), or it is the additive accumulator of an
/// fma. Reductions in the IR are expressed this way (Table 2).
bool isAccumulation(const Node& op);

/// The OpInfo of one op of `p`, resolving buffers through p.bufferOfArray.
OpInfo opInfo(const Program& p, const Node& op);

/// Bitmask over LoopAnno values.
using AnnoMask = std::uint16_t;
constexpr AnnoMask annoBit(LoopAnno a) {
  return static_cast<AnnoMask>(1u << static_cast<unsigned>(a));
}

class ProgramIndex {
 public:
  /// The id-keyed tree structure of the indexed state.
  struct Shape {
    struct Slot {
      NodeId parent = kInvalidNode;  // kInvalidNode for the root
      std::int32_t child = -1;       // index within parent.children
      std::int32_t depth = -1;       // 0 = root container
      std::int32_t pre = -1;         // pre-order position; -1 = absent id
      std::int32_t end = -1;         // exclusive end of the subtree's range
    };
    std::vector<Slot> slots;  // by NodeId
    NodeId root = kInvalidNode;

    bool known(NodeId id) const { return id < slots.size() && slots[id].pre >= 0; }
    const Slot& operator[](NodeId id) const { return slots[id]; }
  };

  explicit ProgramIndex(const Program& p);
  ProgramIndex(const ProgramIndex&) = delete;
  ProgramIndex& operator=(const ProgramIndex&) = delete;

  const Program& program() const { return *p_; }
  NodeId rootId() const { return shape_.root; }
  const Shape& shape() const { return shape_; }

  bool known(NodeId id) const { return shape_.known(id); }
  /// The node with this id; nullptr if absent. Replaces findNode.
  const Node* node(NodeId id) const {
    return known(id) ? nodes_[preOf(id)] : nullptr;
  }
  /// The scope with this id unless it is absent, an op or the root
  /// container: the site a scope-located transform acts on.
  const Node* scope(NodeId id) const {
    const Node* n = node(id);
    return n != nullptr && n->isScope() && id != shape_.root ? n : nullptr;
  }
  /// Replaces findParent: nullptr for the root or an absent id.
  const Node* parent(NodeId id) const {
    return known(id) ? node(shape_[id].parent) : nullptr;
  }
  /// Replaces childIndex(*parent, id): -1 for the root or an absent id.
  int childIndex(NodeId id) const { return known(id) ? shape_[id].child : -1; }
  /// 0 for the root container; -1 if absent.
  int depth(NodeId id) const { return known(id) ? shape_[id].depth : -1; }

  /// Replaces enclosingScopes: the scopes from the root (exclusive) down to
  /// `id` (exclusive). Throws if `id` is absent.
  std::vector<NodeId> enclosingScopes(NodeId id) const;
  /// True if a scope enclosing `id` (root container excluded) carries an
  /// annotation in `annos`.
  bool nestedUnder(NodeId id, AnnoMask annos) const {
    return known(id) && (facts_[preOf(id)].anno_above & annos) != 0;
  }
  /// True if a scope in the subtree at `id`, inclusive, carries an
  /// annotation in `annos`.
  bool subtreeHas(NodeId id, AnnoMask annos) const {
    return known(id) && (facts_[preOf(id)].anno_within & annos) != 0;
  }

  /// Every node of the subtree at `id`, pre-order; empty if absent.
  std::span<const Node* const> subtree(NodeId id) const {
    if (!known(id)) return {};
    return std::span<const Node* const>(nodes_).subspan(
        preOf(id), static_cast<std::size_t>(shape_[id].end - shape_[id].pre));
  }
  /// Calls fn(const Node&) on every scope of the subtree at `id` other than
  /// the root container, pre-order. Replaces collectScopesWithin.
  template <typename Fn>
  void forEachScope(NodeId id, Fn&& fn) const {
    for (const Node* n : subtree(id))
      if (n->isScope() && n->id != shape_.root) fn(*n);
  }

  /// The ops of the subtree at `id`, execution order. Replaces
  /// collectOpInfos.
  std::span<const OpInfo> ops(NodeId id) const;
  /// The ops under children [first, last) of `parent`, execution order.
  std::span<const OpInfo> ops(const Node& parent, std::size_t first,
                              std::size_t last) const;

  /// Replaces Program::bufferOfArray.
  const Buffer* bufferOf(const std::string& array) const;

 private:
  AnnoMask add(const Node& n, NodeId parent, std::int32_t child,
               std::int32_t depth, AnnoMask above);
  std::size_t preOf(NodeId id) const {
    return static_cast<std::size_t>(shape_[id].pre);
  }
  std::span<const OpInfo> opsBetween(std::int32_t pre, std::int32_t end) const;

  const Program* p_;
  Shape shape_;
  std::vector<const Node*> nodes_;  // pre-order
  /// By pre-order position, plus one sentinel entry past the last node.
  struct NodeFacts {
    std::int32_t ops_before = 0;  // ops earlier in pre-order
    AnnoMask anno_above = 0;      // annotations of enclosing scopes
    AnnoMask anno_within = 0;     // annotations of the subtree's scopes
  };
  std::vector<NodeFacts> facts_;
  std::vector<OpInfo> ops_;  // pre-order
  struct ArrayBuffer {
    const std::string* array;
    const Buffer* buffer;
  };
  std::vector<ArrayBuffer> arrays_;
};

}  // namespace perfdojo::ir
