#include "transform/action_set.h"

#include "support/common.h"

namespace perfdojo::transform {

void ActionSet::bind(const ir::Program& p, const MachineCaps& caps) {
  caps_ = caps;
  ++stats_.binds;
  enumerate(p);
  bound_ = true;
}

void ActionSet::update(const ir::Program& p, const ir::MutationSummary&) {
  require(bound_, "ActionSet: bind() a program first");
  ++stats_.updates;
  ++stats_.full_rebuilds;
  enumerate(p);
}

void ActionSet::enumerate(const ir::Program& p) {
  // allActions(p, caps_), written into the held list so that its capacity
  // carries over from state to state: building a fresh list per accepted
  // move cost perfbench's tune-edges about 5% of its throughput.
  const ir::ProgramIndex ix(p);
  actions_.clear();
  for (const Transform* t : allTransforms())
    for (auto& loc : t->findApplicable(ix, caps_))
      actions_.push_back({t, std::move(loc)});
}

bool ActionSet::selfCheck(const ir::Program& p, std::string* detail) const {
  if (!bound_) {
    if (detail) *detail = "action set: selfCheck before bind";
    return false;
  }
  const auto fresh = allActions(p, caps_);
  if (fresh.size() != actions_.size()) {
    if (detail)
      *detail = "action set: size diverged (maintained " +
                std::to_string(actions_.size()) + " vs fresh " +
                std::to_string(fresh.size()) + ")";
    return false;
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (fresh[i].transform != actions_[i].transform ||
        !(fresh[i].loc == actions_[i].loc)) {
      if (detail)
        *detail = "action set: entry " + std::to_string(i) +
                  " diverged (maintained " + actions_[i].describe(p) +
                  " vs fresh " + fresh[i].describe(p) + ")";
      return false;
    }
  }
  return true;
}

}  // namespace perfdojo::transform
