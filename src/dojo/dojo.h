// PerfDojo: the optimization game (Section 2). A Dojo holds the current
// program, enumerates the applicable moves (transform + location pairs),
// applies moves while recording a non-destructive history, prices states via
// a machine model, and tracks the best implementation seen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "machines/machine.h"
#include "transform/action_set.h"
#include "transform/history.h"
#include "transform/transform.h"

namespace perfdojo::search {
class EvalCache;
}

namespace perfdojo::dojo {

struct DojoOptions {
  /// Numerically verify every move against the original program (the paper's
  /// empirical validation). Affordable only for small shapes; tests use it,
  /// search/RL rely on the statically guaranteed applicability checks.
  bool verify_moves = false;
  /// Reward scaling constant `c` in r = c / T (Section 3.1).
  double reward_scale = 1e-6;
  /// Optional shared memo table: states revisited during play (undo paths,
  /// transposed move orders, other games on the same kernel) are priced once.
  search::EvalCache* eval_cache = nullptr;
};

class Dojo {
 public:
  Dojo(ir::Program kernel, const machines::Machine& machine,
       DojoOptions opts = {});

  const ir::Program& program() const { return history_.current(); }
  const ir::Program& original() const { return history_.original(); }
  const machines::Machine& machine() const { return *machine_; }
  const transform::History& history() const { return history_; }

  /// Modeled runtime of the current program (cached).
  double runtime() const { return runtime_; }
  /// Paper reward: r = c / T of the state reached by the last move.
  double reward() const { return opts_.reward_scale / runtime_; }

  double bestRuntime() const { return best_runtime_; }
  const ir::Program& bestProgram() const { return best_program_; }
  /// Move index (into the history) after which the best program was reached.
  std::size_t bestStep() const { return best_step_; }

  /// All applicable moves in the current state, element-identical (same
  /// order) to a fresh enumeration. Backed by a transform::ActionSet bound
  /// on the first call after a play() or undo(), so repeated calls on an
  /// unchanged state are a copy, not a re-walk.
  std::vector<transform::Action> moves() const;

  /// Applies a move. Throws on inapplicable moves; with verify_moves also
  /// throws if numerical equivalence against the original is violated (which
  /// would indicate a bug in an applicability rule, not a user error).
  void play(const transform::Action& a);

  /// Undoes the last move (restores the recorded state).
  void undo();

  /// Number of moves played so far.
  std::size_t steps() const { return history_.size(); }

 private:
  void refresh();
  double evaluate(const ir::Program& p) const;

  const machines::Machine* machine_;
  DojoOptions opts_;
  transform::History history_;
  /// Move list for the current state; `moves_fresh_` says whether it
  /// describes history_.current() (play and undo invalidate it; moves()
  /// re-binds lazily). Mutable: the list is a cache of derivable state, so
  /// moves() stays const.
  mutable transform::ActionSet moves_index_;
  mutable bool moves_fresh_ = false;
  double runtime_ = 0;
  ir::Program best_program_;
  double best_runtime_ = 0;
  std::size_t best_step_ = 0;
};

}  // namespace perfdojo::dojo
