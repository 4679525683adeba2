#include "transform/transform.h"

#include <cerrno>
#include <cstdlib>

#include "ir/incremental.h"
#include "ir/walk.h"
#include "support/common.h"
#include "support/strings.h"

namespace perfdojo::transform {

void Transform::applyInPlace(ir::Program& q, const Location& loc,
                             ir::MutationSummary* mut, bool validate) const {
  (void)validate;  // apply() always validates
  q = apply(q, loc);
  if (mut) *mut = ir::MutationSummary::conservative();
}

std::vector<Location> Transform::findApplicable(const ir::Program& p,
                                                const MachineCaps& caps) const {
  return findApplicable(ir::ProgramIndex(p), caps);
}

std::string Transform::describe(const ir::Program& p, const Location& loc) const {
  std::string s = name() + "(";
  bool first = true;
  auto field = [&](const std::string& f) {
    if (!first) s += ", ";
    s += f;
    first = false;
  };
  if (loc.node != ir::kInvalidNode) {
    std::string f = "@" + std::to_string(loc.node);
    if (const ir::Node* n = ir::findNode(p.root, loc.node)) {
      if (n->isScope())
        f += "[extent=" + std::to_string(n->extent) + "]";
      else
        f += "[op=" + std::string(ir::opName(n->op)) + "->" + n->out.array + "]";
    }
    field(f);
  }
  if (!loc.buffer.empty()) field("buffer=" + loc.buffer);
  if (loc.dim >= 0) field("dim=" + std::to_string(loc.dim));
  if (loc.dim2 >= 0) field("dim2=" + std::to_string(loc.dim2));
  if (loc.param != 0) field("param=" + std::to_string(loc.param));
  if (loc.space != ir::MemSpace::Heap) field(std::string("space=") + ir::memSpaceName(loc.space));
  return s + ")";
}

const std::vector<const Transform*>& allTransforms() {
  static const std::vector<const Transform*> all = {
      &splitScope(),    &collapseScopes(), &interchangeScopes(),
      &joinScopes(),    &fissionScope(),   &reorderOps(),
      &partialReduce(),
      &unroll(),        &vectorize(),      &parallelize(),
      &gpuMapGrid(),    &gpuMapBlock(),    &gpuMapWarp(),
      &ssrStream(),     &frep(),           &reuseDims(),
      &materializeDims(), &reorderDims(),  &padDim(),
      &setStorage(),
  };
  return all;
}

const Transform* findTransform(const std::string& name) {
  for (const Transform* t : allTransforms())
    if (t->name() == name) return t;
  return nullptr;
}

std::vector<Action> allActions(const ir::Program& p, const MachineCaps& caps) {
  return allActions(p, caps, allTransforms());
}

std::vector<Action> allActions(const ir::Program& p, const MachineCaps& caps,
                               const std::vector<const Transform*>& transforms) {
  const ir::ProgramIndex ix(p);
  std::vector<Action> actions;
  for (const Transform* t : transforms) {
    auto locs = t->findApplicable(ix, caps);
    actions.reserve(actions.size() + locs.size());
    for (auto& loc : locs) actions.push_back({t, std::move(loc)});
  }
  return actions;
}

std::string locationToText(const Location& loc) {
  std::string s = "node=" + std::to_string(loc.node);
  if (!loc.buffer.empty()) s += " buffer=" + loc.buffer;
  if (loc.dim >= 0) s += " dim=" + std::to_string(loc.dim);
  if (loc.dim2 >= 0) s += " dim2=" + std::to_string(loc.dim2);
  if (loc.param != 0) s += " param=" + std::to_string(loc.param);
  if (loc.space != ir::MemSpace::Heap)
    s += std::string(" space=") + ir::memSpaceName(loc.space);
  return s;
}

bool locationFromText(const std::string& text, Location& out) {
  out = Location{};
  for (const auto& tok : splitTokens(text)) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (val.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const std::int64_t num = std::strtoll(val.c_str(), &end, 10);
    // strtoll saturates to INT64_MIN/MAX on overflow without failing the
    // end-pointer check; a forged witness with an out-of-range numeric would
    // silently round-trip to a different location. Reject the token instead.
    const bool numeric = end && *end == '\0' && errno != ERANGE;
    if (key == "node" && numeric) out.node = static_cast<ir::NodeId>(num);
    else if (key == "buffer") out.buffer = val;
    else if (key == "dim" && numeric) out.dim = static_cast<int>(num);
    else if (key == "dim2" && numeric) out.dim2 = static_cast<int>(num);
    else if (key == "param" && numeric) out.param = num;
    else if (key == "space") {
      if (!ir::parseMemSpace(val, out.space)) return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace perfdojo::transform
