#include "ir/program_index.h"

#include <algorithm>

#include "support/common.h"

namespace perfdojo::ir {

namespace {

template <typename Resolve>
OpInfo makeOpInfo(const Node& op, Resolve&& bufferOf) {
  require(op.isOp(), "opInfo: not an op node");
  OpInfo info;
  info.op = &op;
  info.write = {&op.out, bufferOf(op.out.array)};
  for (const auto& in : op.ins) {
    if (in.kind != Operand::Kind::Array) continue;
    require(info.n_reads < info.read_slots.size(),
            "opInfo: more array operands than any opcode takes");
    info.read_slots[info.n_reads++] = {&in.access, bufferOf(in.access.array)};
  }
  info.is_accumulation = isAccumulation(op);
  return info;
}

void countNodes(const Node& n, std::size_t& nodes, std::size_t& ops) {
  ++nodes;
  if (n.isOp()) ++ops;
  for (const auto& c : n.children) countNodes(c, nodes, ops);
}

}  // namespace

bool isAccumulation(const Node& op) {
  if (opIsAssociativeCommutative(op.op)) {
    for (const auto& in : op.ins)
      if (in.kind == Operand::Kind::Array && in.access == op.out) return true;
    return false;
  }
  // out = a*b + out is a sum-of-products reduction (associative +
  // commutative over the additive accumulator).
  if (op.op == OpCode::Fma) {
    const auto& c = op.ins[2];
    return c.kind == Operand::Kind::Array && c.access == op.out;
  }
  return false;
}

OpInfo opInfo(const Program& p, const Node& op) {
  return makeOpInfo(op, [&](const std::string& a) { return p.bufferOfArray(a); });
}

ProgramIndex::ProgramIndex(const Program& p) : p_(&p) {
  // Size every column once: the index is rebuilt per program state.
  std::size_t nodes = 0, ops = 0;
  countNodes(p.root, nodes, ops);
  nodes_.reserve(nodes);
  facts_.reserve(nodes + 1);
  ops_.reserve(ops);
  shape_.slots.resize(p.next_id);  // ids are below next_id; add() grows if not
  arrays_.reserve(p.buffers.size());
  for (const Buffer& b : p.buffers)
    for (const auto& a : b.arrays) arrays_.push_back({&a, &b});
  shape_.root = p.root.id;
  add(p.root, kInvalidNode, -1, 0, 0);
  facts_.push_back({static_cast<std::int32_t>(ops_.size()), 0, 0});
}

AnnoMask ProgramIndex::add(const Node& n, NodeId parent, std::int32_t child,
                           std::int32_t depth, AnnoMask above) {
  if (n.id >= shape_.slots.size())
    shape_.slots.resize(std::max<std::size_t>(n.id + 1, 2 * shape_.slots.size()));
  const auto pre = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(&n);
  facts_.push_back({static_cast<std::int32_t>(ops_.size()), above, 0});
  AnnoMask within = 0;
  if (n.isOp()) {
    ops_.push_back(makeOpInfo(n, [&](const std::string& a) { return bufferOf(a); }));
  } else {
    // The root container is not an enclosing scope of anything.
    const AnnoMask below = depth > 0 ? above | annoBit(n.anno) : above;
    within = annoBit(n.anno);
    for (std::size_t i = 0; i < n.children.size(); ++i)
      within |= add(n.children[i], n.id, static_cast<std::int32_t>(i),
                    depth + 1, below);
  }
  Shape::Slot& s = shape_.slots[n.id];
  s.parent = parent;
  s.child = child;
  s.depth = depth;
  s.pre = pre;
  s.end = static_cast<std::int32_t>(nodes_.size());
  facts_[static_cast<std::size_t>(pre)].anno_within = within;
  return within;
}

std::vector<NodeId> ProgramIndex::enclosingScopes(NodeId id) const {
  require(known(id), "enclosingScopes: node not found");
  std::vector<NodeId> chain;
  for (NodeId a = shape_[id].parent; a != kInvalidNode && a != shape_.root;
       a = shape_[a].parent)
    chain.push_back(a);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::span<const OpInfo> ProgramIndex::opsBetween(std::int32_t pre,
                                                 std::int32_t end) const {
  const auto lo =
      static_cast<std::size_t>(facts_[static_cast<std::size_t>(pre)].ops_before);
  const auto hi =
      static_cast<std::size_t>(facts_[static_cast<std::size_t>(end)].ops_before);
  return std::span<const OpInfo>(ops_).subspan(lo, hi - lo);
}

std::span<const OpInfo> ProgramIndex::ops(NodeId id) const {
  if (!known(id)) return {};
  return opsBetween(shape_[id].pre, shape_[id].end);
}

std::span<const OpInfo> ProgramIndex::ops(const Node& parent, std::size_t first,
                                          std::size_t last) const {
  if (first >= last) return {};
  return opsBetween(shape_[parent.children[first].id].pre,
                    shape_[parent.children[last - 1].id].end);
}

const Buffer* ProgramIndex::bufferOf(const std::string& array) const {
  for (const ArrayBuffer& ab : arrays_)
    if (*ab.array == array) return ab.buffer;
  return nullptr;
}

}  // namespace perfdojo::ir
