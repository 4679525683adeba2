// Heuristic-structure candidate building (Section 4.2.1). A state of the
// heuristic structure is a whole transformation sequence over one kernel,
// and a proposal edits it at one position i: it appends a step (i = n), or
// replaces or erases step i. The candidate shares the prefix [0, i) with the
// sequence it came from — the tree of sequences of Kruse et al., in which a
// child keeps its parent's prefix — so its program is the parent's state
// after i steps plus a replay of the candidate's tail.
//
// PrefixReplayer keeps the incumbent sequence's program after every
// kStride-th step (its checkpoints) and builds a candidate by copying the
// nearest checkpoint at or before i and replaying in place from there. Every
// step is applied with full validation, exactly as History::replay applies
// it; the saving is in replaying fewer steps and copying fewer programs.
//
// Invariant: checkpoints()[j] is the program History::replay returns for the
// incumbent's first j * kStride steps, for every j < checkpoints().size(),
// and checkpoints()[0] is the kernel.
#pragma once

#include <cstddef>
#include <vector>

#include "ir/program.h"
#include "support/rng.h"
#include "transform/history.h"

namespace perfdojo::search {

class PrefixReplayer {
 public:
  /// Checkpoint stride. A stride of 1 would hold one program per incumbent
  /// step; 4 holds a quarter of that while a proposal replays at most 3
  /// incumbent steps before its edit point.
  static constexpr std::size_t kStride = 4;

  /// Starts with the empty sequence as the incumbent.
  explicit PrefixReplayer(const ir::Program& kernel);

  /// Makes `steps`, which must replay from the kernel, the incumbent. Only
  /// the kernel checkpoint is kept; stateAt records the others as it replays
  /// past them.
  void bind(std::vector<transform::Step> steps);

  const std::vector<transform::Step>& steps() const { return steps_; }
  const std::vector<ir::Program>& checkpoints() const { return ckpt_; }

  /// The incumbent's program after its first `i` steps, i <= steps().size().
  ir::Program stateAt(std::size_t i);

  /// Replays `tail` in place on `p`, which must be stateAt(at), and makes the
  /// candidate the incumbent's first `at` steps followed by `tail`. Returns
  /// false if a step fails to apply; then there is no candidate, `p` is
  /// unspecified and the checkpoints are untouched.
  bool replayTail(std::size_t at, std::vector<transform::Step> tail,
                  ir::Program& p);

  /// The candidate of the last successful replayTail.
  const std::vector<transform::Step>& candidate() const { return cand_; }

  /// Makes the candidate the incumbent without replaying anything: the
  /// checkpoints at or before its edit point are kept, and the ones its tail
  /// replay recorded are spliced in after them.
  void accept();

  /// Proposes a neighbor of the incumbent: append an expert-suggested action
  /// (always when the incumbent is empty; with probability 0.6 while it has
  /// fewer than `max_steps` steps), else replace (0.2) or erase (0.2) a
  /// uniformly drawn step. On success `out` is the candidate's program.
  /// Returns false if no action applies at the edit point or the edited
  /// sequence no longer replays.
  bool propose(const transform::MachineCaps& caps, Rng& rng, int max_steps,
               ir::Program& out);

 private:
  std::vector<transform::Step> steps_;
  std::vector<ir::Program> ckpt_;
  std::vector<transform::Step> cand_;
  std::size_t cand_at_ = 0;
  bool has_cand_ = false;
  std::vector<ir::Program> cand_ckpt_;  // the candidate's, past cand_at_
};

}  // namespace perfdojo::search
