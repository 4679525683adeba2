#include "transform/history.h"

#include <iterator>

#include "support/common.h"

namespace perfdojo::transform {

History::History(ir::Program original) {
  states_.push_back(std::move(original));
}

const ir::Program& History::stateBefore(std::size_t i) const {
  require(i < states_.size(), "History::stateBefore: step out of range");
  return states_[i];
}

void History::push(const Action& a) {
  ir::Program next = current();
  a.transform->applyInPlace(next, a.loc, nullptr, /*validate=*/true);
  states_.push_back(std::move(next));
  steps_.push_back({a.transform, a.loc});
}

void History::undo() {
  require(!steps_.empty(), "History::undo: empty history");
  states_.pop_back();
  steps_.pop_back();
}

void History::truncate(std::size_t n) {
  require(n <= steps_.size(), "History::truncate: step out of range");
  states_.erase(states_.begin() + static_cast<std::ptrdiff_t>(n + 1),
                states_.end());
  steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(n), steps_.end());
}

void History::append(History tail) {
  states_.insert(states_.end(), std::make_move_iterator(tail.states_.begin() + 1),
                 std::make_move_iterator(tail.states_.end()));
  steps_.insert(steps_.end(), std::make_move_iterator(tail.steps_.begin()),
                std::make_move_iterator(tail.steps_.end()));
}

std::optional<ir::Program> History::replay(const ir::Program& base,
                                           const std::vector<Step>& steps,
                                           ReplayResult& result) {
  // One working copy mutated in place; apply() would copy the whole program
  // at every step. Each step is validated exactly as apply() validates it.
  ir::Program p = base;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    try {
      steps[i].transform->applyInPlace(p, steps[i].loc, nullptr,
                                       /*validate=*/true);
    } catch (const Error& e) {
      result.ok = false;
      result.failed_step = i;
      result.message = e.what();
      return std::nullopt;
    }
  }
  result.ok = true;
  return p;
}

}  // namespace perfdojo::transform
