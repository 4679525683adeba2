// Non-destructive transformation history (Section 2's "non-destructive
// transformations" requirement): the original specification is never lost.
// The history keeps the program state before every step, so undo of the last
// step restores the recorded state in O(1), and replay() reports the first
// step that no longer applies instead of silently dropping it. It is also the
// one per-step store of the heuristic-based search of Section 4.2.1:
// search::PrefixReplayer records the incumbent sequence in a History, keeps
// the prefix a candidate shares with it (truncate) and appends the
// candidate's tail, recorded as a History of its own (append).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/program.h"
#include "transform/transform.h"

namespace perfdojo::transform {

struct Step {
  const Transform* transform = nullptr;
  Location loc;
};

class History {
 public:
  explicit History(ir::Program original);

  const ir::Program& original() const { return states_.front(); }
  const ir::Program& current() const { return states_.back(); }
  const std::vector<Step>& steps() const { return steps_; }
  std::size_t size() const { return steps_.size(); }

  /// The program step `i` was applied to: stateBefore(0) is original(),
  /// stateBefore(size()) is current(). Identical to replay() of the first
  /// `i` steps from original().
  const ir::Program& stateBefore(std::size_t i) const;

  /// Applies an action (validated) to a copy of current() and records both.
  /// Throws if inapplicable; the history is then unchanged.
  void push(const Action& a);

  /// Removes the last step, restoring the state recorded before it.
  void undo();

  /// Keeps the first `n` steps and their states, n <= size().
  void truncate(std::size_t n);

  /// Appends `tail`'s steps and the states they recorded. `tail` must have
  /// been recorded from current(); its original() is dropped.
  void append(History tail);

  /// Outcome of replay(): on failure, the first step that no longer applies.
  struct ReplayResult {
    bool ok = true;
    std::size_t failed_step = 0;  // index of first inapplicable step
    std::string message;
  };

  /// Replays `steps` from `base`; returns the final program or nullopt with
  /// diagnostics in `result`.
  static std::optional<ir::Program> replay(const ir::Program& base,
                                           const std::vector<Step>& steps,
                                           ReplayResult& result);

 private:
  std::vector<ir::Program> states_;  // states_[i] = stateBefore(i)
  std::vector<Step> steps_;
};

}  // namespace perfdojo::transform
