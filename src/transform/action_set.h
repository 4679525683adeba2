// The applicable-action list of the state a search walk stands on.
//
// An ActionSet holds the actions of the last program passed to bind() or
// update(). Each call builds one ir::ProgramIndex of that program and
// enumerates every transform of the standard library through it, exactly as
// transform::allActions does, so the ~20 transforms share one analysis per
// state instead of each walking the tree. The set keeps no index and no
// pointer into any program between calls: a copied set can be updated
// against a different Program object.
//
// The invariant the search tiers key on holds by construction:
//
//   actions() is element-identical — same elements, same order — to a fresh
//   transform::allActions(p, caps) after every bind()/update().
//
// Decision sequences, traces and optimality certificates are therefore
// exactly those a fresh enumeration per state gives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "transform/transform.h"

namespace perfdojo::ir {
struct MutationSummary;
}

namespace perfdojo::transform {

struct ActionSetStats {
  std::int64_t binds = 0;
  std::int64_t updates = 0;
  /// Updates that enumerated the whole program: every update does.
  std::int64_t full_rebuilds = 0;
};

class ActionSet {
 public:
  ActionSet() = default;

  /// Enumerates `p` against the standard transform library.
  void bind(const ir::Program& p, const MachineCaps& caps);

  bool bound() const { return bound_; }

  /// Enumerates `p`, the program the bound one was mutated into, with the
  /// caps of the last bind(). The mutation's summary is not read: the list
  /// is rebuilt from `p` alone, whatever the summary reports.
  void update(const ir::Program& p, const ir::MutationSummary& mut);

  /// The list: element-identical to allActions(p, caps) for the last program
  /// passed to bind()/update(). Invalidated by both.
  const std::vector<Action>& actions() const { return actions_; }

  /// Verifies the invariant against a fresh enumeration; on mismatch returns
  /// false and describes the first divergence (test aid).
  bool selfCheck(const ir::Program& p, std::string* detail = nullptr) const;

  const ActionSetStats& stats() const { return stats_; }

 private:
  void enumerate(const ir::Program& p);

  MachineCaps caps_;
  std::vector<Action> actions_;
  ActionSetStats stats_;
  bool bound_ = false;
};

}  // namespace perfdojo::transform
