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
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
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
#include "support/common.h"
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

void preOrderIds(const ir::Node& n, std::vector<ir::NodeId>& out) {
  out.push_back(n.id);
  for (const auto& c : n.children) preOrderIds(c, out);
}

/// Requires `got` to be indistinguishable from a context freshly bound to
/// `want`: the same base (canonical text, node ids, id watermark, action
/// list), the same hash, and the same hash for every neighbor.
void expectMatchesFreshBind(DeltaContext& got, const ir::Program& want,
                            const transform::MachineCaps& caps) {
  DeltaContext fresh;
  fresh.bind(want);
  ASSERT_EQ(got.baseHash(), fresh.baseHash());
  ASSERT_EQ(ir::canonicalText(got.base()), ir::canonicalText(want));
  ASSERT_EQ(got.base().next_id, want.next_id);
  std::vector<ir::NodeId> got_ids, want_ids;
  preOrderIds(got.base().root, got_ids);
  preOrderIds(want.root, want_ids);
  ASSERT_EQ(got_ids, want_ids);
  const auto actions = transform::allActions(want, caps);
  const auto got_actions = transform::allActions(got.base(), caps);
  ASSERT_EQ(got_actions.size(), actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i)
    ASSERT_TRUE(got_actions[i].transform == actions[i].transform &&
                got_actions[i].loc == actions[i].loc)
        << actions[i].describe(want);
  for (const auto& b : actions)
    ASSERT_EQ(got.neighborHash(b), fresh.neighborHash(b)) << b.describe(want);
}

TEST(Rebase, AcceptAfterVisitMatchesFreshBind) {
  // A visited neighbor stays applied on the context's scratch tree; accept()
  // of that action commits it as it stands, and every other call first
  // undoes it. Along seeded walks, each step runs one of these sequences
  // and the context must then equal a fresh bind of a.apply(old base):
  //   0: visit a -> accept a                 (committed in place)
  //   1: visit a -> visit b -> accept a      (b undone, a applied again)
  //   2: visit a, the visitor throws -> accept a
  //   3: visit a -> bind the old base again -> accept a
  //   4: visit a -> bind a.apply(old base)
  // Odd walks visit through neighborVisit, even ones through visit. The
  // neighbor hashes of each check leave a neighbor applied for the next
  // step's sequence to undo.
  int runs[5] = {};  // steps run per sequence kind
  for (const auto& k : kernels::table3()) {
    for (const auto* m :
         {&machines::snitch(), &machines::xeon(), &machines::gh200()}) {
      const auto& caps = m->caps();
      for (const std::uint64_t seed : {5u, 23u}) {
        SCOPED_TRACE(::testing::Message() << k.label << " on " << m->name()
                                          << " seed " << seed);
        Rng rng(seed);
        ir::Program p = k.build();
        DeltaContext dctx;
        dctx.bind(p);
        std::int64_t in_place = 0;
        for (int step = 0; step < 10; ++step) {
          const auto actions = transform::allActions(p, caps);
          if (actions.empty()) break;
          const std::size_t ai = rng.uniform(actions.size());
          const auto& a = actions[ai];
          const auto& b = actions[(ai + 1) % actions.size()];
          const ir::Program next = a.apply(p);
          auto visit = [&](const transform::Action& x,
                           const DeltaContext::Visitor& fn) {
            if (seed == 23u)
              dctx.neighborVisit(x, [&](std::uint64_t, const ir::Program& q) {
                if (fn) fn(q);
              });
            else
              dctx.visit(x, fn);
          };
          SCOPED_TRACE(::testing::Message() << "step " << step << " kind "
                                            << step % 5 << ": "
                                            << a.describe(p));
          switch (step % 5) {
            case 0:
              visit(a, [&](const ir::Program& q) {
                ASSERT_TRUE(ir::canonicallyEqual(q, next));
              });
              dctx.accept(a);
              ++in_place;
              break;
            case 1:
              visit(a, nullptr);
              visit(b, [&](const ir::Program& q) {
                ASSERT_TRUE(ir::canonicallyEqual(q, b.apply(p)));
              });
              dctx.accept(a);
              if (&b == &a) ++in_place;
              break;
            case 2:
              EXPECT_THROW(visit(a, [](const ir::Program&) {
                             fail("visitor threw");
                           }),
                           Error);
              dctx.accept(a);
              break;
            case 3:
              visit(a, nullptr);
              dctx.bind(p);
              dctx.accept(a);
              break;
            case 4:
              visit(a, nullptr);
              dctx.bind(next);
              break;
          }
          expectMatchesFreshBind(dctx, next, caps);
          if (::testing::Test::HasFatalFailure()) return;
          ++runs[step % 5];
          p = next;
        }
        EXPECT_EQ(dctx.stats().accepts_in_place, in_place);
      }
    }
  }
  for (int kind = 0; kind < 5; ++kind)
    EXPECT_GT(runs[kind], 50) << "sequence kind " << kind;
}

/// A move that changes nothing and reports so: the clean summary shape (no
/// dirty root, buffers unchanged), which no library transform reports.
class NoOpMove : public transform::Transform {
 public:
  std::string name() const override { return "test_noop"; }
  using Transform::findApplicable;
  std::vector<transform::Location> findApplicable(
      const ir::ProgramIndex& ix, const transform::MachineCaps&) const override {
    transform::Location l;
    l.node = ix.rootId();
    return {l};
  }
  ir::Program apply(const ir::Program& p,
                    const transform::Location&) const override {
    return p;
  }
  void applyInPlace(ir::Program&, const transform::Location&,
                    ir::MutationSummary* mut, bool) const override {
    if (mut) *mut = ir::MutationSummary::none();
  }
};

/// The shapes a mutation report takes, as the arena resolves them.
enum Shape { kDirtySubtree, kRootContainer, kWholeTree, kHeaderOnly, kClean,
             kShapes };

const char* shapeName(int s) {
  static const char* const names[kShapes] = {
      "dirty subtree", "dirty root container", "whole-tree", "header-only",
      "clean"};
  return names[s];
}

Shape shapeOf(const ir::MutationSummary& mut, const ir::Program& q) {
  if (mut.whole_tree) return kWholeTree;
  if (mut.dirty == ir::kInvalidNode)
    return mut.buffers_changed ? kHeaderOnly : kClean;
  return mut.dirty == q.root.id ? kRootContainer : kDirtySubtree;
}

TEST(Rebase, AcceptMatchesFreshBindForEverySummaryShape) {
  // Whatever accept(a) reuses from the calls before it, the context's
  // canonical form must afterwards equal a fresh bind of a.apply(base)
  // column by column, text and hash included. Along seeded walks over
  // Table 3 x four machines, each state takes one action of every summary
  // shape it offers (reorder_dims reports whole-tree, set_storage
  // header-only, the test no-op clean) and runs three sequences from a
  // fresh bind of the state:
  //   0: neighborVisit(a) -> accept(a)   (priced and probed, then committed)
  //   1: visit(a) -> accept(a)           (applied but never probed)
  //   2: neighborVisit(b) -> accept(a)   (b probed and undone, a applied)
  const NoOpMove noop;
  int runs[kShapes] = {};
  for (const auto& k : kernels::table3()) {
    for (const auto* m : {&machines::snitch(), &machines::xeon(),
                          &machines::gh200(), &machines::mi300a()}) {
      const auto& caps = m->caps();
      SCOPED_TRACE(::testing::Message() << k.label << " on " << m->name());
      Rng rng(31);
      ir::Program p = k.build();
      for (int step = 0; step < 6; ++step) {
        const auto actions = transform::allActions(p, caps);
        if (actions.empty()) break;
        std::vector<const transform::Action*> pick(kShapes, nullptr);
        for (const auto& a : actions) {
          ir::Program q = p;
          ir::MutationSummary mut;
          a.transform->applyInPlace(q, a.loc, &mut, /*validate=*/false);
          const Shape s = shapeOf(mut, q);
          if (!pick[s]) pick[s] = &a;
        }
        const transform::Action clean{&noop, noop.findApplicable(p, caps)[0]};
        pick[kClean] = &clean;
        for (int s = 0; s < kShapes; ++s) {
          if (!pick[s]) continue;
          const transform::Action& a = *pick[s];
          const transform::Action& b =
              actions.front().transform == a.transform &&
                      actions.front().loc == a.loc
                  ? actions.back()
                  : actions.front();
          const ir::Program next = a.apply(p);
          const ir::CanonicalArena fresh(next);
          for (int seq = 0; seq < 3; ++seq) {
            SCOPED_TRACE(::testing::Message()
                         << "step " << step << ", " << shapeName(s)
                         << ", sequence " << seq << ": " << a.describe(p));
            DeltaContext dctx;
            dctx.bind(p);
            if (seq == 0) dctx.neighborVisit(a, nullptr);
            if (seq == 1) dctx.visit(a, nullptr);
            if (seq == 2) dctx.neighborVisit(b, nullptr);
            dctx.accept(a);
            ASSERT_EQ(ir::canonicalText(dctx.base()), ir::canonicalText(next));
            ASSERT_EQ(dctx.baseHash(), fresh.hash());
            expectArenasIdentical(dctx.arena(), fresh, next);
            if (::testing::Test::HasFatalFailure()) return;
          }
          ++runs[s];
        }
        p = actions[rng.uniform(actions.size())].apply(p);
      }
    }
  }
  for (int s = 0; s < kShapes; ++s)
    EXPECT_GT(runs[s], 20) << shapeName(s);
}

/// A transform that rewrites one top-level scope's extent and reports it as
/// the dirty root, but also appends a new empty top-level scope after it
/// that the report does not cover: an inadequate report whose unseen clean
/// node comes after the dirty root in pre-order.
class TrailingScopeForger : public transform::Transform {
 public:
  std::string name() const override { return "test_trailing_scope"; }
  using Transform::findApplicable;
  std::vector<transform::Location> findApplicable(
      const ir::ProgramIndex& ix, const transform::MachineCaps&) const override {
    transform::Location l;
    l.node = ix.program().root.children.front().id;
    return {l};
  }
  ir::Program apply(const ir::Program& p,
                    const transform::Location& loc) const override {
    ir::Program q = p;
    applyInPlace(q, loc, nullptr, true);
    return q;
  }
  void applyInPlace(ir::Program& q, const transform::Location& loc,
                    ir::MutationSummary* mut, bool) const override {
    ir::Node& first = q.root.children.front();
    require(first.id == loc.node && first.isScope(),
            "test_trailing_scope: stale location");
    first.extent += 1;
    q.root.children.push_back(ir::Node::scope(q.freshId(), 3));
    if (mut) {
      *mut = ir::MutationSummary::none();
      mut->dirty = loc.node;
    }
  }
};

TEST(Rebase, UnseenCleanNodeAfterTheDirtyRootEqualsFreshBind) {
  // probe() renders the reported subtree and then meets a clean node the
  // base never had. Whatever it kept of that render, the rebase that
  // follows must describe the mutated program exactly.
  const TrailingScopeForger forger;
  for (const char* label : {"softmax", "matmul"}) {
    SCOPED_TRACE(label);
    const ir::Program p = kernels::findKernel(label)->build();
    ASSERT_TRUE(!p.root.children.empty() &&
                p.root.children.front().isScope());
    const auto locs = forger.findApplicable(p, machines::xeon().caps());
    ir::Program q = p;
    ir::MutationSummary mut;
    forger.applyInPlace(q, locs.front(), &mut, false);
    ir::CanonicalArena arena(p);
    EXPECT_EQ(arena.probe(q, mut), ir::canonicalHash(q));
    arena.rebase(q, mut);
    expectArenasIdentical(arena, ir::CanonicalArena(q), q);
  }
}

TEST(Rebase, EdgesAnnealingCommitsMostAcceptsInPlace) {
  // The edges annealer prices a drawn neighbor through neighborVisit and,
  // when Metropolis accepts it, commits it through accept(): unless its
  // price came from the per-state memo, that accept finds the move still
  // applied. This loop is that annealing run — its trace must equal
  // runSearch's — driven through one DeltaContext, whose counters must show
  // exactly the accepts that followed a pricing committed in place, and
  // those must be most of them.
  const auto& m = machines::xeon();
  for (const char* label : {"softmax", "layernorm_1"}) {
    SCOPED_TRACE(label);
    const ir::Program kernel = kernels::findKernel(label)->build();
    SearchConfig cfg;
    cfg.method = SearchMethod::SimulatedAnnealing;
    cfg.structure = SpaceStructure::Edges;
    cfg.budget = 400;
    cfg.max_steps = 16;
    cfg.seed = 7;
    const auto want = runSearch(kernel, m, cfg);

    Rng rng(cfg.seed);
    std::vector<double> trace;
    double best = std::numeric_limits<double>::infinity();
    auto record = [&](double rt) {
      if (std::isfinite(rt) && rt >= 0 && rt < best) best = rt;
      trace.push_back(best);
    };
    const double base_rt = m.evaluate(kernel);
    record(base_rt);
    DeltaContext dctx;
    dctx.bind(kernel);
    double cur_rt = base_rt;
    double temp = cfg.sa_t0;
    int steps = 0;
    std::int64_t accepts = 0, priced_accepts = 0;
    auto actions = transform::allActions(dctx.base(), m.caps());
    std::vector<double> memo(actions.size(), -1.0);
    while (static_cast<int>(trace.size()) < cfg.budget) {
      if (actions.empty() || steps >= cfg.max_steps) {
        dctx.bind(kernel);
        cur_rt = base_rt;
        steps = 0;
        actions = transform::allActions(dctx.base(), m.caps());
        memo.assign(actions.size(), -1.0);
        ASSERT_FALSE(actions.empty());
        continue;
      }
      const std::size_t ai = rng.uniform(actions.size());
      const bool memo_hit = memo[ai] >= 0;
      if (!memo_hit)
        dctx.neighborVisit(actions[ai], [&](std::uint64_t,
                                            const ir::Program& q) {
          memo[ai] = m.evaluate(q);
        });
      const double rt = memo[ai];
      record(rt);
      if (saAccept((rt - cur_rt) / base_rt, temp, rng)) {
        dctx.accept(actions[ai]);
        ++accepts;
        if (!memo_hit) ++priced_accepts;
        cur_rt = rt;
        ++steps;
        actions = transform::allActions(dctx.base(), m.caps());
        memo.assign(actions.size(), -1.0);
      }
      temp *= cfg.sa_decay;
    }
    EXPECT_EQ(trace, want.trace);
    EXPECT_EQ(best, want.best_runtime);
    EXPECT_EQ(dctx.stats().accepts, accepts);
    EXPECT_EQ(dctx.stats().accepts_in_place, priced_accepts);
    EXPECT_GT(2 * dctx.stats().accepts_in_place, accepts);
  }
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

/// One transform's share of the enumerations a golden sweep saw: how many
/// locations it offered and an fnv1a chained over their describe() texts.
struct ListFingerprint {
  std::int64_t count = 0;
  std::uint64_t hash = 1469598103934665603ull;  // fnv1a's offset basis
};

TEST(ActionSet, ListsMatchGoldenOverTable3) {
  // Every ActionSet test above compares the list to allActions, which runs
  // the same emitters, so an emitter that silently offers nothing passes
  // them all. This pins the lists themselves: per transform, the location
  // count and the describe() texts over every Table-3 kernel on four caps
  // profiles, at build_small and at each state of a seeded 20-step walk
  // from build (each step applies a uniformly drawn action of the list).
  struct Pin {
    const char* transform;
    std::int64_t small_count;
    std::uint64_t small_hash;
    std::int64_t walk_count;
    std::uint64_t walk_hash;
  };
  const Pin pins[] = {
      {"split_scope", 348, 0xefc26efa375fd02bull, 43806, 0xd48d79ad2aeb5742ull},
      {"collapse_scopes", 192, 0xe13e1950ad9b4383ull, 7009, 0x7f63e8fe50a7172eull},
      {"interchange_scopes", 192, 0xe77f337d8acf6de7ull, 6209, 0x4927a81bcd8acad9ull},
      {"join_scopes", 96, 0x706695c68f161643ull, 811, 0x4088b3af0f5a4918ull},
      {"fission_scope", 96, 0x9f1301a900fdad23ull, 1360, 0x991bf72a07a19b9aull},
      {"reorder_ops", 24, 0x648065ef007b3ef7ull, 575, 0x52c7cc01f81bab98ull},
      {"partial_reduce", 56, 0x76dd206e11b44777ull, 1951, 0x671ba136af774813ull},
      {"unroll", 389, 0x83e8bf5ebb823790ull, 6270, 0x2d13b946d74ccac6ull},
      {"vectorize", 24, 0x9e13e8df4ba76992ull, 388, 0x0049f87ce71744daull},
      {"parallelize", 83, 0xcfb425b8169cdf2dull, 1744, 0x7713c5d1ad47a48aull},
      {"gpu_map_grid", 166, 0x0f8765c3518c5a33ull, 3872, 0x8c88dc607536375bull},
      {"gpu_map_block", 0, 0x14650fb0739d0383ull, 593, 0x49b7bf3d0716dd25ull},
      {"gpu_map_warp", 0, 0x14650fb0739d0383ull, 21, 0x2fcac82e539380d6ull},
      {"ssr_stream", 41, 0x32d1a8f043c94315ull, 759, 0x8f54e690fd0f79feull},
      {"frep", 0, 0x14650fb0739d0383ull, 138, 0x79d0c0c4b6969071ull},
      {"reuse_dims", 32, 0xbdf0ea0297082863ull, 209, 0x25d36430a14d3d1aull},
      {"materialize_dims", 0, 0x14650fb0739d0383ull, 55, 0xdffc6da35c331037ull},
      {"reorder_dims", 60, 0x81240e77cbfd8077ull, 1260, 0xf2d092760b18e687ull},
      {"pad_dim", 101, 0x80ffa2372619e116ull, 402, 0xed0d05285df1f8e2ull},
      {"set_storage", 226, 0x70a6a75d2ae54bedull, 3093, 0xb4abcdf0e88fabb5ull},
  };
  const auto& all = transform::allTransforms();
  std::vector<ListFingerprint> small(all.size()), walk(all.size());
  auto note = [&](const ir::Program& p,
                  const std::vector<transform::Action>& actions,
                  std::vector<ListFingerprint>& into) {
    for (const auto& a : actions) {
      const auto t = static_cast<std::size_t>(
          std::find(all.begin(), all.end(), a.transform) - all.begin());
      ASSERT_LT(t, all.size()) << a.describe(p);
      ++into[t].count;
      into[t].hash = fnv1a(a.describe(p), into[t].hash);
    }
  };
  for (const auto& k : kernels::table3()) {
    for (const auto* m : {&machines::snitch(), &machines::xeon(),
                          &machines::gh200(), &machines::mi300a()}) {
      SCOPED_TRACE(::testing::Message() << k.label << " on " << m->name());
      const ir::Program small_p = k.build_small();
      transform::ActionSet aset;
      aset.bind(small_p, m->caps());
      note(small_p, aset.actions(), small);
      ir::Program p = k.build();
      Rng rng(fnv1a(m->name(), fnv1a(k.label)));
      aset.bind(p, m->caps());
      note(p, aset.actions(), walk);
      for (int step = 0; step < 20 && !aset.actions().empty(); ++step) {
        const auto a = aset.actions()[rng.uniform(aset.actions().size())];
        ir::MutationSummary mut;
        a.transform->applyInPlace(p, a.loc, &mut);
        aset.update(p, mut);
        note(p, aset.actions(), walk);
      }
    }
  }
  // The observed fingerprints, printed in the table's own syntax.
  std::string table;
  for (std::size_t t = 0; t < all.size(); ++t) {
    char row[192];
    std::snprintf(row, sizeof row, "      {\"%s\", %lld, 0x%016llxull, %lld, 0x%016llxull},\n",
                  all[t]->name().c_str(),
                  static_cast<long long>(small[t].count),
                  static_cast<unsigned long long>(small[t].hash),
                  static_cast<long long>(walk[t].count),
                  static_cast<unsigned long long>(walk[t].hash));
    table += row;
  }
  ASSERT_EQ(std::size(pins), all.size()) << table;
  for (std::size_t t = 0; t < all.size(); ++t) {
    const Pin& pin = pins[t];
    SCOPED_TRACE(pin.transform);
    EXPECT_EQ(all[t]->name(), pin.transform);
    EXPECT_EQ(small[t].count, pin.small_count);
    EXPECT_EQ(small[t].hash, pin.small_hash);
    EXPECT_EQ(walk[t].count, pin.walk_count);
    EXPECT_EQ(walk[t].hash, pin.walk_hash);
  }
  if (HasFailure()) ADD_FAILURE() << "observed fingerprints:\n" << table;
}

}  // namespace
}  // namespace perfdojo::search
