// Heuristic-structure candidate building (Section 4.2.1). A state of the
// heuristic structure is a whole transformation sequence over one kernel,
// and a proposal edits it at one position i: it appends a step (i = n), or
// replaces or erases step i. The candidate shares the prefix [0, i) with the
// sequence it came from — the tree of sequences of Kruse et al., in which a
// child keeps its parent's prefix — so its program is the parent's state
// after i steps plus the candidate's tail.
//
// PrefixReplayer records the incumbent sequence's states in one
// transform::History, the same store the expert passes build. A candidate's
// tail is recorded as a History that starts at the incumbent's state at i;
// accepting it keeps the first i recorded states and appends the tail's, and
// nothing is replayed. Every step is applied with full validation, because
// History::push validates each state it records.
//
// Invariant: recorded().steps() is a prefix of steps(), so recorded()'s
// state before step j is the program History::replay returns for the
// incumbent's first j steps. The record is complete (it holds every step)
// after accept() and after bind(History); bind(steps) keeps the states of
// the prefix the new incumbent shares with the record, and stateAt records
// the missing ones as it reaches them.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ir/program.h"
#include "support/rng.h"
#include "transform/history.h"

namespace perfdojo::search {

class PrefixReplayer {
 public:
  /// Starts with the empty sequence as the incumbent.
  explicit PrefixReplayer(const ir::Program& kernel);

  /// Makes `steps`, which must replay from the kernel, the incumbent. Keeps
  /// the recorded states of the longest prefix whose steps (transform and
  /// location) match the recorded ones.
  void bind(std::vector<transform::Step> steps);

  /// Makes `h`'s steps the incumbent and adopts its states as the record;
  /// `h.original()` must be the kernel. Nothing is replayed.
  void bind(transform::History h);

  const std::vector<transform::Step>& steps() const { return steps_; }
  const transform::History& recorded() const { return rec_; }

  /// The incumbent's program after its first `i` steps, i <= steps().size().
  /// Records the states up to `i` that are not recorded yet.
  const ir::Program& stateAt(std::size_t i);

  /// Records `tail` from stateAt(at) and makes the candidate the incumbent's
  /// first `at` steps followed by `tail`. Returns false if a step fails to
  /// apply; then there is no candidate and the record is untouched.
  bool replayTail(std::size_t at, const std::vector<transform::Step>& tail);

  /// The candidate of the last successful replayTail, and its program.
  const std::vector<transform::Step>& candidate() const { return cand_; }
  const ir::Program& candidateProgram() const;

  /// Makes the candidate the incumbent without replaying anything: the
  /// recorded states before its edit point are kept and its tail's states
  /// are appended after them.
  void accept();

  /// Proposes a neighbor of the incumbent: append an expert-suggested action
  /// (always when the incumbent is empty; with probability 0.6 while it has
  /// fewer than `max_steps` steps), else replace (0.2) or erase (0.2) a
  /// uniformly drawn step. On success candidateProgram() is the candidate's
  /// program. Returns false, leaving no candidate, if no action applies at
  /// the edit point or the edited sequence no longer replays.
  bool propose(const transform::MachineCaps& caps, Rng& rng, int max_steps);

 private:
  std::vector<transform::Step> steps_;
  transform::History rec_;  // records a prefix of steps_
  std::vector<transform::Step> cand_;
  std::size_t cand_at_ = 0;
  std::optional<transform::History> cand_tail_;  // from rec_'s state cand_at_
};

}  // namespace perfdojo::search
