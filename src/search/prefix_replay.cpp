#include "search/prefix_replay.h"

#include <algorithm>
#include <iterator>

#include "search/search.h"
#include "support/common.h"

namespace perfdojo::search {

using transform::Action;
using transform::Step;

namespace {

/// One replayed step, validated exactly as History::replay validates it.
void applyStep(ir::Program& p, const Step& s) {
  s.transform->applyInPlace(p, s.loc, nullptr, /*validate=*/true);
}

}  // namespace

PrefixReplayer::PrefixReplayer(const ir::Program& kernel) : ckpt_{kernel} {}

void PrefixReplayer::bind(std::vector<Step> steps) {
  steps_ = std::move(steps);
  ckpt_.resize(1);
  has_cand_ = false;
  cand_ckpt_.clear();
}

ir::Program PrefixReplayer::stateAt(std::size_t i) {
  if (i > steps_.size()) fail("PrefixReplayer::stateAt: index out of range");
  const std::size_t j = std::min(i / kStride, ckpt_.size() - 1);
  ir::Program p = ckpt_[j];
  for (std::size_t s = j * kStride; s < i; ++s) {
    applyStep(p, steps_[s]);
    if (s + 1 == ckpt_.size() * kStride) ckpt_.push_back(p);
  }
  return p;
}

bool PrefixReplayer::replayTail(std::size_t at, std::vector<Step> tail,
                                ir::Program& p) {
  if (at > steps_.size() || at / kStride >= ckpt_.size())
    fail("PrefixReplayer::replayTail: edit point past the recorded prefix");
  has_cand_ = false;
  cand_ckpt_.clear();
  for (std::size_t k = 0; k < tail.size(); ++k) {
    try {
      applyStep(p, tail[k]);
    } catch (const Error&) {
      cand_ckpt_.clear();
      return false;
    }
    if ((at + k + 1) % kStride == 0) cand_ckpt_.push_back(p);
  }
  cand_.assign(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(at));
  cand_.insert(cand_.end(), std::make_move_iterator(tail.begin()),
               std::make_move_iterator(tail.end()));
  cand_at_ = at;
  has_cand_ = true;
  return true;
}

void PrefixReplayer::accept() {
  if (!has_cand_) fail("PrefixReplayer::accept: no candidate");
  // replayTail saw checkpoints through cand_at_, so the kept ones and the
  // tail's (the first at the next multiple of kStride) are contiguous.
  ckpt_.erase(ckpt_.begin() + static_cast<std::ptrdiff_t>(cand_at_ / kStride + 1),
              ckpt_.end());
  for (ir::Program& c : cand_ckpt_) ckpt_.push_back(std::move(c));
  cand_ckpt_.clear();
  steps_.swap(cand_);
  has_cand_ = false;
}

bool PrefixReplayer::propose(const transform::MachineCaps& caps, Rng& rng,
                             int max_steps, ir::Program& out) {
  const std::size_t n = steps_.size();
  const double r = rng.uniformReal();
  const bool append = n == 0 || (r < 0.6 && static_cast<int>(n) < max_steps);
  const std::size_t at = append ? n : static_cast<std::size_t>(rng.uniform(n));
  ir::Program p = stateAt(at);
  std::vector<Step> tail;
  if (append || r < 0.8) {
    // Append, or replace step `at`: an expert action applicable right there.
    Action a;
    if (!suggestExpertAction(p, caps, rng, a)) return false;
    tail.push_back({a.transform, std::move(a.loc)});
  }
  if (!append)  // replace or erase: the steps after `at` follow unchanged
    tail.insert(tail.end(), steps_.begin() + static_cast<std::ptrdiff_t>(at + 1),
                steps_.end());
  if (!replayTail(at, std::move(tail), p)) return false;
  out = std::move(p);
  return true;
}

}  // namespace perfdojo::search
