// Property and bit-identity suite for the arena-backed delta pricing path.
//
// The contract under test (see src/search/delta.h):
// DeltaContext::neighborHash(a) equals ir::canonicalHash(a.apply(base))
// bit-for-bit, a throwing action leaves the context fully resynchronized,
// and a search run makes exactly the decisions of the reference loop that
// prices by copy and full render, on one thread or eight.
//
// "Both backends" below are the two ways a context's canonical form reaches
// a base: a fresh bind() and an in-place rebase by accept(). Both must price
// every neighbor exactly as the definition does.
//
// Suite names deliberately contain "Arena"/"Delta" so the CI ThreadSanitizer
// job's -R regex picks them up.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/arena.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/delta.h"
#include "search/pass.h"
#include "search/search.h"
#include "support/common.h"
#include "support/telemetry.h"
#include "transform/transform.h"
#include "reference_search.h"

namespace perfdojo::search {
namespace {

/// The programs the properties quantify over: flat Table-3 builds plus their
/// heuristically scheduled forms (splits + annotations = the deep trees whose
/// pricing the arena exists for).
std::vector<ir::Program> propertyCorpus() {
  std::vector<ir::Program> out;
  for (const char* label : {"softmax", "layernorm_1", "matmul", "mul"}) {
    const auto* k = kernels::findKernel(label);
    if (!k) continue;
    out.push_back(k->build());
    out.push_back(naivePass(out.back(), machines::xeon()).current());
  }
  return out;
}

/// An action guaranteed to throw inside neighborHash: a real transform aimed
/// at a node id no program owns (the stale-location defense path).
transform::Action poisonAction() {
  transform::Action a;
  a.transform = transform::allTransforms().front();
  a.loc.node = static_cast<ir::NodeId>(1 << 20);
  return a;
}

/// Brings two contexts to the same base the two ways: `rebased` binds `p`
/// and accept()s its first action, `fresh` binds the accepted program
/// directly. Returns false when `p` offers no action.
bool bothBackends(const ir::Program& p, DeltaContext& fresh,
                  DeltaContext& rebased) {
  const auto actions = transform::allActions(p, machines::xeon().caps());
  if (actions.empty()) return false;
  rebased.bind(p);
  fresh.bind(rebased.accept(actions.front()));
  return true;
}

TEST(ArenaDelta, NeighborHashMatchesCopyHashOnBothBackends) {
  for (const auto& p : propertyCorpus()) {
    DeltaContext fresh, rebased;
    ASSERT_TRUE(bothBackends(p, fresh, rebased));
    const ir::Program q = fresh.base();
    const auto actions = transform::allActions(q, machines::xeon().caps());
    ASSERT_FALSE(actions.empty());
    for (DeltaContext* dctx : {&fresh, &rebased}) {
      SCOPED_TRACE(::testing::Message()
                   << (dctx == &fresh ? "bound" : "rebased") << " context, "
                   << ir::nodeCount(q.root) << " nodes");
      EXPECT_EQ(dctx->baseHash(), ir::canonicalHash(q));
      // Two full passes over the neighbor set: the second proves the
      // watermark undo restored the scratch state exactly after every
      // single mutation of the first.
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& a : actions)
          ASSERT_EQ(dctx->neighborHash(a), ir::canonicalHash(a.apply(q)))
              << "pass " << pass << ": " << a.describe(q);
      }
      // The visited scratch tree is the neighbor itself.
      for (const auto& a : actions)
        dctx->neighborVisit(a, [&](std::uint64_t, const ir::Program& n) {
          ASSERT_TRUE(ir::canonicallyEqual(n, a.apply(q))) << a.describe(q);
        });
      EXPECT_EQ(dctx->stats().neighbors_hashed,
                3 * static_cast<std::int64_t>(actions.size()));
    }
  }
}

TEST(ArenaDelta, ThrowingActionLeavesContextBitExactOnBothBackends) {
  // A failing action must fully resynchronize the scratch tree and the
  // canonical form, so the NEXT neighbor hashes exactly as a fresh
  // copy-based hash would. Interleaving a poison action before every valid
  // neighbor exercises the resync on every mutation shape the corpus offers.
  const auto poison = poisonAction();
  for (const auto& p : propertyCorpus()) {
    DeltaContext fresh, rebased;
    ASSERT_TRUE(bothBackends(p, fresh, rebased));
    const ir::Program q = fresh.base();
    const auto actions = transform::allActions(q, machines::xeon().caps());
    for (DeltaContext* dctx : {&fresh, &rebased}) {
      SCOPED_TRACE(dctx == &fresh ? "bound context" : "rebased context");
      for (const auto& a : actions) {
        EXPECT_THROW(dctx->neighborHash(poison), Error);
        ASSERT_EQ(dctx->neighborHash(a), ir::canonicalHash(a.apply(q)))
            << "after a throwing action: " << a.describe(q);
      }
      // A throwing accept leaves the old base in place, fully usable.
      EXPECT_THROW(dctx->accept(poison), Error);
      EXPECT_EQ(dctx->baseHash(), ir::canonicalHash(q));
      ASSERT_TRUE(ir::canonicallyEqual(dctx->base(), q));
      // The context survives rebinding after all that abuse.
      const ir::Program r = actions.front().apply(q);
      dctx->bind(r);
      EXPECT_EQ(dctx->baseHash(), ir::canonicalHash(r));
    }
  }
}

/// A transform whose in-place apply succeeds but points an op's output
/// index at a scope that encloses nothing, so rendering the reported dirty
/// subtree (the rebase inside accept()) throws.
class DanglingIterForger : public transform::Transform {
 public:
  std::string name() const override { return "test_dangling_iter"; }
  using Transform::findApplicable;
  std::vector<transform::Location> findApplicable(
      const ir::ProgramIndex& ix, const transform::MachineCaps&) const override {
    std::vector<transform::Location> locs;
    for (const auto& c : ix.program().root.children)
      if (c.isScope() && !ir::collectOps(c).empty()) {
        transform::Location l;
        l.node = c.id;
        locs.push_back(l);
      }
    return locs;
  }
  ir::Program apply(const ir::Program& p,
                    const transform::Location& loc) const override {
    ir::Program q = p;
    applyInPlace(q, loc, nullptr, true);
    return q;
  }
  void applyInPlace(ir::Program& q, const transform::Location& loc,
                    ir::MutationSummary* mut, bool) const override {
    ir::Node* n = ir::findNode(q.root, loc.node);
    require(n && n->isScope(), "test_dangling_iter: stale location");
    ir::Node* op = ir::collectOps(*n).front();
    require(!op->out.idx.empty(), "test_dangling_iter: scalar output");
    op->out.idx[0] = ir::IndexExpr::iter(9999);
    if (mut) {
      *mut = ir::MutationSummary::none();
      mut->dirty = loc.node;
    }
  }
};

TEST(ArenaDelta, ThrowingRebaseLeavesContextBitExact) {
  // The apply succeeds and the arena's rebase throws: accept() must still
  // leave the old base in place with scratch tree and canonical form
  // resynchronized, so neighbors and the next accept are priced exactly.
  const DanglingIterForger forger;
  const auto& caps = machines::xeon().caps();
  for (const auto& p : propertyCorpus()) {
    DeltaContext fresh, rebased;
    ASSERT_TRUE(bothBackends(p, fresh, rebased));
    const ir::Program q = fresh.base();
    const auto actions = transform::allActions(q, caps);
    const auto locs = forger.findApplicable(q, caps);
    ASSERT_FALSE(locs.empty());
    const transform::Action forged{&forger, locs.front()};
    for (DeltaContext* dctx : {&fresh, &rebased}) {
      SCOPED_TRACE(dctx == &fresh ? "bound context" : "rebased context");
      EXPECT_THROW(dctx->accept(forged), Error);
      EXPECT_EQ(dctx->baseHash(), ir::canonicalHash(q));
      ASSERT_TRUE(ir::canonicallyEqual(dctx->base(), q));
      for (const auto& a : actions)
        ASSERT_EQ(dctx->neighborHash(a), ir::canonicalHash(a.apply(q)))
            << "after a throwing rebase: " << a.describe(q);
      const ir::Program r = actions.front().apply(q);
      ASSERT_TRUE(ir::canonicallyEqual(dctx->accept(actions.front()), r));
      EXPECT_EQ(dctx->baseHash(), ir::canonicalHash(r));
      EXPECT_EQ(dctx->baseHash(), ir::CanonicalArena(r).hash());
    }
  }
}

/// A transform that appends an empty top-level scope and reports that new
/// scope as its dirty root: a root the base does not have, which breaks the
/// MutationSummary contract. The mutated tree itself renders fine.
class NewRootForger : public transform::Transform {
 public:
  std::string name() const override { return "test_new_root"; }
  using Transform::findApplicable;
  std::vector<transform::Location> findApplicable(
      const ir::ProgramIndex& ix, const transform::MachineCaps&) const override {
    transform::Location l;
    l.node = ix.program().root.id;
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
    require(loc.node == q.root.id, "test_new_root: stale location");
    const ir::NodeId id = q.freshId();
    q.root.children.push_back(ir::Node::scope(id, 1));
    if (mut) {
      *mut = ir::MutationSummary::none();
      mut->dirty = id;
    }
  }
};

TEST(ArenaDelta, MisreportedDirtyRootLeavesContextBitExact) {
  // Undo and commit locate the reported root in both trees before they
  // write anything. A root the base lacks must throw on the undo path (a
  // visit after the forged one, or an accept of another action) and on the
  // commit path (accepting the forged visit itself), and leave the context
  // equal to a fresh bind of the old base.
  const NewRootForger forger;
  const auto& caps = machines::xeon().caps();
  for (const auto& p : propertyCorpus()) {
    DeltaContext fresh, rebased;
    ASSERT_TRUE(bothBackends(p, fresh, rebased));
    const ir::Program q = fresh.base();
    const auto actions = transform::allActions(q, caps);
    const transform::Action forged{&forger, forger.findApplicable(q, caps)[0]};
    const transform::Action& other = actions.front();
    DeltaContext reference;
    reference.bind(q);
    for (DeltaContext* dctx : {&fresh, &rebased}) {
      SCOPED_TRACE(dctx == &fresh ? "bound context" : "rebased context");
      auto expectOldBase = [&](const char* path) {
        SCOPED_TRACE(path);
        ASSERT_TRUE(ir::canonicallyEqual(dctx->base(), q));
        EXPECT_EQ(dctx->base().next_id, q.next_id);
        EXPECT_EQ(dctx->baseHash(), reference.baseHash());
        for (const auto& a : actions)
          ASSERT_EQ(dctx->neighborHash(a), reference.neighborHash(a))
              << a.describe(q);
      };
      dctx->visit(forged, nullptr);
      EXPECT_THROW(dctx->visit(other, nullptr), Error);
      expectOldBase("visit after the forged visit");
      dctx->visit(forged, nullptr);
      EXPECT_THROW(dctx->accept(forged), Error);
      expectOldBase("accept of the forged visit");
      dctx->visit(forged, nullptr);
      EXPECT_THROW(dctx->accept(other), Error);
      expectOldBase("accept of another action after the forged visit");
    }
  }
}

TEST(ArenaDelta, BackendsAgreeAlongAGreedyWalk) {
  // Accept-per-step, the shape of the annealing loop: walk a few accepted
  // steps deep through accept() (the rebased backend) and require, at every
  // intermediate state, the program the definition gives (a chain of
  // copies), the hash a fresh CanonicalArena::bind gives, and every
  // neighbor priced as canonicalHash(a.apply(p)).
  ir::Program p = kernels::findKernel("softmax")->build();
  DeltaContext dctx;
  dctx.bind(p);
  for (int depth = 0; depth < 6; ++depth) {
    const auto actions = transform::allActions(p, machines::xeon().caps());
    if (actions.empty()) break;
    for (const auto& a : actions)
      ASSERT_EQ(dctx.neighborHash(a), ir::canonicalHash(a.apply(p)))
          << "depth " << depth << ": " << a.describe(p);
    const auto& pick = actions[static_cast<std::size_t>(depth) %
                               actions.size()];
    const ir::Program next = pick.apply(p);
    const ir::Program& accepted = dctx.accept(pick);
    ASSERT_TRUE(ir::canonicallyEqual(accepted, next)) << "depth " << depth;
    ASSERT_EQ(dctx.baseHash(), ir::CanonicalArena(next).hash())
        << "depth " << depth;
    p = next;
  }
  EXPECT_GT(dctx.stats().accepts, 0);
}

TEST(ArenaDelta, SearchTracesBitIdenticalArenaOnOffAcrossThreads) {
  // Arena-priced runs at threads 1 and 8 against the reference loop, which
  // never touches an arena: every neighbor is a copy hashed by full render.
  // Traces, best cost and memo counters must be bit-identical.
  for (const char* label : {"softmax", "matmul"}) {
    for (const auto* m : {&machines::snitch(), &machines::gh200()}) {
      const ir::Program kernel = kernels::findKernel(label)->build();
      SearchConfig base;
      base.method = SearchMethod::SimulatedAnnealing;
      base.structure = SpaceStructure::Edges;
      base.budget = 160;
      base.max_steps = 10;
      base.seed = 7;
      Telemetry ref_sink;
      const auto ref = reference::annealingEdges(kernel, *m, base, ref_sink);
      for (int threads : {1, 8}) {
        SCOPED_TRACE(::testing::Message() << label << " on " << m->name()
                                          << " threads=" << threads);
        Telemetry sink;
        SearchConfig cfg = base;
        cfg.threads = threads;
        cfg.telemetry = &sink;
        const auto r = runSearch(kernel, *m, cfg);
        EXPECT_EQ(ref.best_runtime, r.best_runtime);
        EXPECT_TRUE(ir::canonicallyEqual(ref.best, r.best));
        EXPECT_EQ(ref.trace, r.trace);
        EXPECT_EQ(reference::eventLines(sink.buffered(), "sa_step"),
                  ref_sink.buffered());
        EXPECT_EQ(r.stats.unique_programs, ref.unique_programs);
      }
    }
  }
}

}  // namespace
}  // namespace perfdojo::search
