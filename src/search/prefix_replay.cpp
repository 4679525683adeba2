#include "search/prefix_replay.h"

#include "search/search.h"
#include "support/common.h"

namespace perfdojo::search {

using transform::Action;
using transform::History;
using transform::Step;

PrefixReplayer::PrefixReplayer(const ir::Program& kernel) : rec_(kernel) {}

void PrefixReplayer::bind(std::vector<Step> steps) {
  const std::vector<Step>& rec = rec_.steps();
  std::size_t k = 0;
  while (k < rec.size() && k < steps.size() &&
         rec[k].transform == steps[k].transform && rec[k].loc == steps[k].loc)
    ++k;
  rec_.truncate(k);
  steps_ = std::move(steps);
  cand_tail_.reset();
}

void PrefixReplayer::bind(History h) {
  steps_ = h.steps();
  rec_ = std::move(h);
  cand_tail_.reset();
}

const ir::Program& PrefixReplayer::stateAt(std::size_t i) {
  if (i > steps_.size()) fail("PrefixReplayer::stateAt: index out of range");
  while (rec_.size() < i) {
    const Step& s = steps_[rec_.size()];
    rec_.push({s.transform, s.loc});
  }
  return rec_.stateBefore(i);
}

bool PrefixReplayer::replayTail(std::size_t at, const std::vector<Step>& tail) {
  cand_tail_.emplace(stateAt(at));
  try {
    for (const Step& s : tail) cand_tail_->push({s.transform, s.loc});
  } catch (const Error&) {
    cand_tail_.reset();
    return false;
  }
  cand_.assign(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(at));
  cand_.insert(cand_.end(), tail.begin(), tail.end());
  cand_at_ = at;
  return true;
}

const ir::Program& PrefixReplayer::candidateProgram() const {
  if (!cand_tail_) fail("PrefixReplayer::candidateProgram: no candidate");
  return cand_tail_->current();
}

void PrefixReplayer::accept() {
  if (!cand_tail_) fail("PrefixReplayer::accept: no candidate");
  rec_.truncate(cand_at_);
  rec_.append(std::move(*cand_tail_));
  cand_tail_.reset();
  steps_.swap(cand_);
}

bool PrefixReplayer::propose(const transform::MachineCaps& caps, Rng& rng,
                             int max_steps) {
  cand_tail_.reset();
  const std::size_t n = steps_.size();
  const double r = rng.uniformReal();
  const bool append = n == 0 || (r < 0.6 && static_cast<int>(n) < max_steps);
  const std::size_t at = append ? n : static_cast<std::size_t>(rng.uniform(n));
  std::vector<Step> tail;
  if (append || r < 0.8) {
    // Append, or replace step `at`: an expert action applicable right there.
    Action a;
    if (!suggestExpertAction(stateAt(at), caps, rng, a)) return false;
    tail.push_back({a.transform, std::move(a.loc)});
  }
  if (!append)  // replace or erase: the steps after `at` follow unchanged
    tail.insert(tail.end(), steps_.begin() + static_cast<std::ptrdiff_t>(at + 1),
                steps_.end());
  return replayTail(at, tail);
}

}  // namespace perfdojo::search
