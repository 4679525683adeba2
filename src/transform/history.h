// Non-destructive transformation history (Section 2's "non-destructive
// transformations" requirement): the original specification is never lost.
// Undo of the last step is implemented by replaying the remaining prefix from
// the original program, and replay() reports the first step that no longer
// applies instead of silently dropping it. Editing a sequence at an arbitrary
// point, as the heuristic-based search of Section 4.2.1 requires, lives in
// search::PrefixReplayer, which keeps the shared prefix of parent and child.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/arena.h"
#include "ir/incremental.h"
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

  const ir::Program& original() const { return original_; }
  const ir::Program& current() const { return current_; }
  const std::vector<Step>& steps() const { return steps_; }
  std::size_t size() const { return steps_.size(); }

  /// ir::canonicalHash(current()), maintained incrementally: push() rebases
  /// the canonical form from the applied transform's mutation summary
  /// instead of re-rendering the whole program (undo re-binds). The
  /// deterministic passes and the memoized evaluation layer key on this value.
  std::uint64_t currentHash() const { return canon_.hash(); }

  /// Mutation summary of the last push() — the report currentHash() was
  /// updated from — so callers can splice their own per-state indices (the
  /// Dojo's move list) off the same mutation. Conservative (whole_tree)
  /// after undo(), which replays and rebuilds.
  const ir::MutationSummary& lastMutation() const { return last_mut_; }

  /// Applies an action and records it. Throws if inapplicable.
  void push(const Action& a);

  /// Removes the last step (replay of the prefix).
  void undo();

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
  ir::Program original_;
  ir::Program current_;
  std::vector<Step> steps_;
  ir::CanonicalArena canon_;  // canonical form of current_
  ir::MutationSummary last_mut_ = ir::MutationSummary::conservative();
};

}  // namespace perfdojo::transform
