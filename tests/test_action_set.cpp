// Property and bit-identity suite for the action list a search walk keeps
// (transform::ActionSet) and the arena rebase-on-accept path
// (ir::CanonicalArena::rebase, search::DeltaContext::accept).
//
// The contract under test (see src/transform/action_set.h): after every
// bind()/update() the maintained list is element-identical — same elements,
// same order — to a fresh transform::allActions enumeration; a rebased arena
// is indistinguishable column by column from a freshly bound one; and every
// search tier makes exactly the decisions of a reference written from the
// definitions — a fresh allActions per state, children as copies — on one
// thread or eight. In the test names, "index off" is that reference.
//
// Suite names deliberately contain "ActionSet"/"Rebase" so the CI
// ThreadSanitizer job's -R regex picks them up.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dojo/dojo.h"
#include "ir/arena.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/delta.h"
#include "search/exact.h"
#include "search/search.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "transform/action_set.h"
#include "transform/history.h"
#include "transform/transform.h"
#include "reference_search.h"

namespace perfdojo::search {
namespace {

/// Table-3 kernels the properties quantify over (flat builds; trajectories
/// grow them into the deep split/annotated trees the index exists for).
const std::vector<const char*>& corpusLabels() {
  static const std::vector<const char*> labels = {"softmax", "layernorm_1",
                                                  "matmul", "mul"};
  return labels;
}

TEST(ActionSet, MatchesFreshEnumerationAlongSeededTrajectories) {
  // The core invariant, quantified over kernels x caps profiles x seeded
  // random trajectories: after every accepted in-place mutation, the updated
  // list equals a fresh enumeration element for element.
  for (const char* label : corpusLabels()) {
    const auto* k = kernels::findKernel(label);
    ASSERT_NE(k, nullptr) << label;
    for (const auto* m :
         {&machines::xeon(), &machines::gh200(), &machines::snitch()}) {
      for (const std::uint64_t seed : {3u, 17u}) {
        SCOPED_TRACE(::testing::Message() << label << " on " << m->name()
                                          << " seed " << seed);
        Rng rng(seed);
        ir::Program p = k->build();
        transform::ActionSet aset;
        aset.bind(p, m->caps());
        std::string detail;
        ASSERT_TRUE(aset.selfCheck(p, &detail)) << detail;
        for (int step = 0; step < 12; ++step) {
          const auto& actions = aset.actions();
          if (actions.empty()) break;
          const auto a = actions[rng.uniform(actions.size())];
          ir::MutationSummary mut;
          a.transform->applyInPlace(p, a.loc, &mut);
          aset.update(p, mut);
          ASSERT_TRUE(aset.selfCheck(p, &detail))
              << "step " << step << " (" << a.describe(p) << "): " << detail;
        }
      }
    }
  }
}

TEST(ActionSet, UpdateDoesNotTrustTheMutationReport) {
  // A real move reported as no change at all: the list must still describe
  // the mutated program, because update() enumerates the program it is
  // given, not the report.
  const ir::Program base = kernels::findKernel("softmax")->build();
  const auto& caps = machines::xeon().caps();
  transform::ActionSet aset;
  aset.bind(base, caps);
  ASSERT_FALSE(aset.actions().empty());
  ir::Program p = base;
  const auto& a = aset.actions().front();
  a.transform->applyInPlace(p, a.loc, nullptr);
  ASSERT_NE(ir::canonicalText(p), ir::canonicalText(base));
  aset.update(p, ir::MutationSummary::none());
  std::string detail;
  EXPECT_TRUE(aset.selfCheck(p, &detail)) << detail;
}

TEST(ActionSet, DojoMovesSpliceAcrossPlayAndUndo) {
  const auto& m = machines::xeon();
  dojo::Dojo d(kernels::findKernel("mul")->build(), m);
  for (int step = 0; step < 4; ++step) {
    const auto moves = d.moves();
    const auto fresh = transform::allActions(d.program(), m.caps());
    ASSERT_EQ(moves.size(), fresh.size()) << "step " << step;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      ASSERT_EQ(moves[i].transform, fresh[i].transform) << "step " << step;
      ASSERT_TRUE(moves[i].loc == fresh[i].loc) << "step " << step;
    }
    if (moves.empty()) break;
    d.play(moves[step % moves.size()]);
  }
  d.undo();
  const auto moves = d.moves();
  const auto fresh = transform::allActions(d.program(), m.caps());
  ASSERT_EQ(moves.size(), fresh.size());
  for (std::size_t i = 0; i < moves.size(); ++i)
    ASSERT_TRUE(moves[i].transform == fresh[i].transform &&
                moves[i].loc == fresh[i].loc);
}

/// Requires `got` to be indistinguishable from `want` through every public
/// accessor — the rebase acceptance bar.
void expectArenasIdentical(const ir::CanonicalArena& got,
                           const ir::CanonicalArena& want,
                           const ir::Program& p) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.hash(), want.hash());
  EXPECT_EQ(got.text(), want.text());
  for (std::size_t s = 0; s < want.size(); ++s) {
    ASSERT_EQ(got.idOf(s), want.idOf(s)) << "slot " << s;
    ASSERT_EQ(got.subtreeEnd(s), want.subtreeEnd(s)) << "slot " << s;
    ASSERT_EQ(got.parentOf(s), want.parentOf(s)) << "slot " << s;
    ASSERT_EQ(got.depthOf(s), want.depthOf(s)) << "slot " << s;
    ASSERT_EQ(got.isScope(s), want.isScope(s)) << "slot " << s;
    ASSERT_EQ(got.extentOf(s), want.extentOf(s)) << "slot " << s;
    ASSERT_EQ(got.annoOf(s), want.annoOf(s)) << "slot " << s;
    ASSERT_EQ(got.subtreeText(s), want.subtreeText(s)) << "slot " << s;
  }
  for (ir::NodeId id = 0; id < p.next_id; ++id)
    ASSERT_EQ(got.slotOf(id), want.slotOf(id)) << "id " << id;
}

TEST(Rebase, ArenaRebaseIndistinguishableFromFreshBind) {
  for (const char* label : corpusLabels()) {
    const auto* k = kernels::findKernel(label);
    ASSERT_NE(k, nullptr) << label;
    SCOPED_TRACE(label);
    Rng rng(29);
    ir::Program p = k->build();
    ir::CanonicalArena arena(p);
    for (int step = 0; step < 8; ++step) {
      const auto actions = transform::allActions(p, machines::xeon().caps());
      if (actions.empty()) break;
      const auto& a = actions[rng.uniform(actions.size())];
      ir::MutationSummary mut;
      a.transform->applyInPlace(p, a.loc, &mut);
      arena.rebase(p, mut);
      const ir::CanonicalArena fresh(p);
      SCOPED_TRACE(::testing::Message() << "step " << step);
      expectArenasIdentical(arena, fresh, p);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(Rebase, ConservativeSummaryEqualsFreshBind) {
  ir::Program p = kernels::findKernel("layernorm_1")->build();
  ir::CanonicalArena arena(p);
  const auto actions = transform::allActions(p, machines::xeon().caps());
  ASSERT_FALSE(actions.empty());
  ir::MutationSummary ignored;
  actions.front().transform->applyInPlace(p, actions.front().loc, &ignored);
  arena.rebase(p, ir::MutationSummary::conservative());
  const ir::CanonicalArena fresh(p);
  expectArenasIdentical(arena, fresh, p);
}

TEST(Rebase, DeltaAcceptMatchesRebindOnBothBackends) {
  // The accepted-move path through the arena rebase, a DeltaContext's
  // accept(), next to a History's push() of the same move. After every step
  // the context's hash must be bit-identical to a fresh bind of the program
  // the definition gives (a chain of copies a.apply(p)), both programs must
  // equal that program, and the context must keep pricing neighbors exactly.
  ir::Program p = kernels::findKernel("softmax")->build();
  DeltaContext dctx;
  dctx.bind(p);
  transform::History history(p);
  Rng rng(41);
  int step = 0;
  for (; step < 8; ++step) {
    const auto actions = transform::allActions(p, machines::xeon().caps());
    if (actions.empty()) break;
    const auto& a = actions[rng.uniform(actions.size())];
    const ir::Program next = a.apply(p);
    const std::uint64_t want = ir::CanonicalArena(next).hash();
    const ir::Program& accepted = dctx.accept(a);
    history.push(a);
    ASSERT_EQ(dctx.baseHash(), want) << "step " << step;
    ASSERT_TRUE(ir::canonicallyEqual(accepted, next)) << "step " << step;
    ASSERT_TRUE(ir::canonicallyEqual(history.current(), next))
        << "step " << step;
    for (const auto& b : transform::allActions(next, machines::xeon().caps()))
      ASSERT_EQ(dctx.neighborHash(b), ir::canonicalHash(b.apply(next)))
          << "step " << step << ": " << b.describe(next);
    p = next;
  }
  EXPECT_EQ(dctx.stats().accepts, step);
  EXPECT_GT(step, 0);
}

TEST(ActionSet, SearchTracesBitIdenticalIndexOnOffAcrossThreads) {
  // Decision sequences, traces, best cost and eval counts of the indexed
  // annealer, threads 1 or 8, against the reference loop that re-enumerates
  // every state with a fresh allActions.
  const auto& m = machines::xeon();
  for (const char* label : {"layernorm_1", "mul"}) {
    const ir::Program kernel = kernels::findKernel(label)->build();
    SearchConfig base;
    base.method = SearchMethod::SimulatedAnnealing;
    base.structure = SpaceStructure::Edges;
    base.budget = 160;
    base.max_steps = 10;
    base.seed = 7;
    Telemetry ref_sink;
    const auto ref = reference::annealingEdges(kernel, m, base, ref_sink);
    ASSERT_FALSE(ref_sink.buffered().empty());
    for (int threads : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << label << " threads=" << threads);
      Telemetry sink;
      SearchConfig cfg = base;
      cfg.threads = threads;
      cfg.telemetry = &sink;
      const auto r = runSearch(kernel, m, cfg);
      EXPECT_EQ(ref.best_runtime, r.best_runtime);
      EXPECT_EQ(static_cast<int>(ref.trace.size()), r.evals);
      EXPECT_TRUE(ir::canonicallyEqual(ref.best, r.best));
      EXPECT_EQ(ref.trace, r.trace);
      EXPECT_EQ(reference::eventLines(sink.buffered(), "sa_step"),
                ref_sink.buffered());
    }
  }
}

TEST(ActionSet, RandomSamplingTracesBitIdenticalIndexOnOff) {
  // The sampling pool binds one ActionSet per drawn parent streak; the run
  // must match the serial reference that re-enumerates every draw.
  const auto& m = machines::xeon();
  const ir::Program kernel = kernels::findKernel("softmax")->build();
  SearchConfig base;
  base.method = SearchMethod::RandomSampling;
  base.structure = SpaceStructure::Edges;
  base.budget = 120;
  base.max_steps = 8;
  base.seed = 11;
  const auto ref = reference::randomSamplingEdges(kernel, m, base);
  for (int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SearchConfig cfg = base;
    cfg.threads = threads;
    const auto r = runSearch(kernel, m, cfg);
    EXPECT_EQ(ref.best_runtime, r.best_runtime);
    EXPECT_EQ(static_cast<int>(ref.trace.size()), r.evals);
    EXPECT_TRUE(ir::canonicallyEqual(ref.best, r.best));
    EXPECT_EQ(ref.trace, r.trace);
    EXPECT_EQ(ref.unique_programs, r.stats.unique_programs);
  }
}

TEST(ActionSet, ExactCertificatesBitIdenticalIndexOnOffAcrossThreads) {
  // The exact tier's frontier re-materialization replays trajectories through
  // a copied kernel-bound index; its proof objects must not depend on that.
  // Unpruned, it must visit exactly the reference ball; pruned, it must find
  // the same optimum and identical certificates at threads 1 and 8.
  const ir::Program kernel = kernels::findKernel("mul")->build_small();
  const auto& m = machines::snitch();
  ExactConfig cfg;
  cfg.depth = 3;
  cfg.threads = 1;
  cfg.kernel_label = "mul";
  const auto ball = reference::exactBall(kernel, m, cfg.depth);

  ExactConfig unpruned = cfg;
  unpruned.prune = false;
  const auto full = runExact(kernel, m, unpruned);
  EXPECT_EQ(full.cert.states, ball.states);
  EXPECT_EQ(full.best_cost, ball.optimum);

  const auto serial = runExact(kernel, m, cfg);
  EXPECT_EQ(serial.best_cost, ball.optimum);
  ExactConfig c = cfg;
  c.threads = 8;
  const auto r = runExact(kernel, m, c);
  EXPECT_EQ(r.cert.toJson(), serial.cert.toJson());
  EXPECT_EQ(r.best_cost, serial.best_cost);
  EXPECT_TRUE(ir::canonicallyEqual(r.best, serial.best));
}

}  // namespace
}  // namespace perfdojo::search
