#include "transform/history.h"

#include "support/common.h"

namespace perfdojo::transform {

History::History(ir::Program original)
    : original_(original), current_(std::move(original)) {
  canon_.bind(current_);
}

void History::push(const Action& a) {
  ir::MutationSummary mut;
  ir::Program next = current_;
  a.transform->applyInPlace(next, a.loc, &mut, /*validate=*/true);
  current_ = std::move(next);
  canon_.rebase(current_, mut);
  last_mut_ = std::move(mut);
  steps_.push_back({a.transform, a.loc});
}

void History::undo() {
  require(!steps_.empty(), "History::undo: empty history");
  std::vector<Step> prefix(steps_.begin(), steps_.end() - 1);
  ReplayResult r;
  auto p = replay(original_, prefix, r);
  require(p.has_value(), "History::undo: prefix replay failed: " + r.message);
  current_ = std::move(*p);
  canon_.bind(current_);
  last_mut_ = ir::MutationSummary::conservative();
  steps_ = std::move(prefix);
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

History::ReplayResult History::tryAdopt(std::vector<Step> steps) {
  ReplayResult r;
  auto p = replay(original_, steps, r);
  if (!p) return r;
  current_ = std::move(*p);
  canon_.bind(current_);
  last_mut_ = ir::MutationSummary::conservative();
  steps_ = std::move(steps);
  return r;
}

History::ReplayResult History::eraseStep(std::size_t index) {
  require(index < steps_.size(), "History::eraseStep: index out of range");
  std::vector<Step> edited = steps_;
  edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(index));
  return tryAdopt(std::move(edited));
}

History::ReplayResult History::replaceStep(std::size_t index, const Action& a) {
  require(index < steps_.size(), "History::replaceStep: index out of range");
  std::vector<Step> edited = steps_;
  edited[index] = {a.transform, a.loc};
  return tryAdopt(std::move(edited));
}

History::ReplayResult History::insertStep(std::size_t index, const Action& a) {
  require(index <= steps_.size(), "History::insertStep: index out of range");
  std::vector<Step> edited = steps_;
  edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(index),
                {a.transform, a.loc});
  return tryAdopt(std::move(edited));
}

}  // namespace perfdojo::transform
