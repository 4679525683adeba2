// Property and bit-identity suite for the incrementally maintained action
// index (transform::ActionSet) and the arena rebase-on-accept path
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
#include <deque>
#include <map>
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
#include "search/graph.h"
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
  // random trajectories: after every accepted in-place mutation, the spliced
  // index equals a fresh enumeration element for element.
  std::int64_t total_splices = 0;
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
        total_splices += aset.stats().transform_splices;
      }
    }
  }
  // The walks must actually exercise the incremental path, not live off the
  // conservative full-rebuild fallback.
  EXPECT_GT(total_splices, 0);
}

TEST(ActionSet, ConservativeSummaryFallsBackToFullRebuild) {
  const ir::Program base = kernels::findKernel("softmax")->build();
  const auto& caps = machines::xeon().caps();
  transform::ActionSet aset;
  aset.bind(base, caps);

  // A real mutation reported conservatively: the index must notice it cannot
  // splice and rebuild, landing on the correct list anyway.
  ir::Program p = base;
  const auto actions = transform::allActions(p, caps);
  ASSERT_FALSE(actions.empty());
  ir::MutationSummary ignored;
  actions.front().transform->applyInPlace(p, actions.front().loc, &ignored);
  aset.update(p, ir::MutationSummary::conservative());
  EXPECT_EQ(aset.stats().full_rebuilds, 1);
  std::string detail;
  EXPECT_TRUE(aset.selfCheck(p, &detail)) << detail;

  // An honest empty summary on an unchanged program must not rebuild — and
  // must still be correct, because nothing changed.
  aset.update(p, ir::MutationSummary::none());
  EXPECT_EQ(aset.stats().full_rebuilds, 1);
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
  // The accepted-move path through both consumers of the arena rebase: a
  // DeltaContext's accept() and a History's push(). After every step each
  // must be bit-identical — hash and program — to a fresh bind of the
  // program the definition gives (a chain of copies a.apply(p)), and the
  // context must keep pricing neighbors exactly.
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
    ASSERT_EQ(history.currentHash(), want) << "step " << step;
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

TEST(ActionSet, GraphExpansionIdenticalIndexOnOff) {
  // The BFS graph derives each child's action set from its parent's via the
  // producing action's summary; the graph must be node- and edge-identical
  // to the reference expansion below, which enumerates every node afresh
  // and identifies children as copies by canonicalHash.
  const ir::Program p = kernels::findKernel("softmax")->build();
  const auto& m = machines::xeon();
  constexpr int kDepth = 2;
  constexpr std::size_t kMaxNodes = 200;
  const TransformationGraph g(p, m, kDepth, kMaxNodes);

  struct RefNode {
    int depth;
    double runtime;
  };
  std::map<std::uint64_t, RefNode> nodes;
  std::vector<GraphEdge> edges;
  std::deque<std::pair<std::uint64_t, ir::Program>> frontier;
  const std::uint64_t root = ir::canonicalHash(p);
  nodes[root] = {0, m.evaluate(p)};
  frontier.emplace_back(root, p);
  while (!frontier.empty() && nodes.size() < kMaxNodes) {
    const auto [h, q] = frontier.front();
    frontier.pop_front();
    const int depth = nodes.at(h).depth;
    for (const auto& a : transform::allActions(q, m.caps())) {
      if (nodes.size() >= kMaxNodes) break;
      ir::Program child = a.apply(q);
      const std::uint64_t ch = ir::canonicalHash(child);
      edges.push_back({h, ch, a.describe(q)});
      if (nodes.count(ch)) continue;
      nodes[ch] = {depth + 1, m.evaluate(child)};
      if (depth + 1 < kDepth) frontier.emplace_back(ch, std::move(child));
    }
  }

  ASSERT_EQ(g.nodeCount(), nodes.size());
  ASSERT_EQ(g.edgeCount(), edges.size());
  auto it = nodes.begin();
  for (const auto& [hash, node] : g.nodes()) {
    ASSERT_EQ(hash, it->first);
    EXPECT_EQ(node.runtime, it->second.runtime);
    EXPECT_EQ(node.depth, it->second.depth);
    EXPECT_EQ(ir::canonicalHash(node.program), hash);
    ++it;
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(g.edges()[i].from, edges[i].from) << "edge " << i;
    EXPECT_EQ(g.edges()[i].to, edges[i].to) << "edge " << i;
    EXPECT_EQ(g.edges()[i].label, edges[i].label) << "edge " << i;
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
