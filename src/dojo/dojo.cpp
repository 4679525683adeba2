#include "dojo/dojo.h"

#include "search/evalcache.h"
#include "support/common.h"
#include "verify/verifier.h"

namespace perfdojo::dojo {

Dojo::Dojo(ir::Program kernel, const machines::Machine& machine,
           DojoOptions opts)
    : machine_(&machine),
      opts_(opts),
      history_(std::move(kernel)),
      best_program_(history_.original()) {
  runtime_ = evaluate(program());
  best_runtime_ = runtime_;
}

double Dojo::evaluate(const ir::Program& p) const {
  return opts_.eval_cache ? opts_.eval_cache->evaluate(*machine_, p)
                          : machine_->evaluate(p);
}

std::vector<transform::Action> Dojo::moves() const {
  if (!moves_fresh_) {
    moves_index_.bind(program(), machine_->caps());
    moves_fresh_ = true;
  }
  return moves_index_.actions();
}

void Dojo::play(const transform::Action& a) {
  history_.push(a);
  // Splice the move index from the same summary the history's canonical
  // hash was updated with — before verify can throw, so the index never
  // describes a stale state.
  if (moves_fresh_) moves_index_.update(program(), history_.lastMutation());
  if (opts_.verify_moves) {
    const auto r = verify::verifyEquivalent(history_.original(), program());
    require(r.equivalent,
            "Dojo: move '" + a.transform->name() +
                "' violated semantics (applicability-rule bug): " + r.detail);
  }
  refresh();
}

void Dojo::undo() {
  history_.undo();
  moves_fresh_ = false;  // replayed state: re-bind lazily on the next moves()
  runtime_ = evaluate(program());
  // best_* intentionally kept: undoing exploration does not forget the best
  // implementation found (the game's objective is the best state visited).
}

void Dojo::refresh() {
  runtime_ = evaluate(program());
  if (runtime_ < best_runtime_) {
    best_runtime_ = runtime_;
    best_program_ = program();
    best_step_ = history_.size();
  }
}

}  // namespace perfdojo::dojo
