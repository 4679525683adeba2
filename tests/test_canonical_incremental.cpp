// Property suite for the MutationSummary contract as ir::CanonicalArena
// consumes it: after every apply/undo step of any trajectory, both the
// read-only probe of a mutated program and the in-place rebase onto it must
// equal fnv1a(canonicalText(p)) — the exact value memo tables, witness files
// and telemetry key on. Covers every Table-3 kernel crossed with every
// applicable transform (single-step exhaustive) and with seeded random
// trajectories (multi-step, History push/undo + DeltaContext hash/undo),
// plus the conservative-fallback and header-only paths.
#include <cstdint>
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
#include "support/common.h"
#include "support/rng.h"
#include "transform/history.h"
#include "transform/transform.h"

namespace perfdojo::ir {
namespace {

using transform::Action;
using transform::History;
using transform::Location;
using transform::MachineCaps;
using transform::Transform;

/// The ground truth the whole subsystem is measured against. Spelled out as
/// fnv1a(canonicalText(p)) rather than canonicalHash(p) so the property does
/// not become a tautology if canonicalHash is ever rerouted through the
/// arena.
std::uint64_t groundTruth(const Program& p) {
  const std::string text = canonicalText(p);
  return fnv1a(text.data(), text.size());
}

const std::vector<const machines::Machine*>& profileMachines() {
  static const std::vector<const machines::Machine*> ms = {
      &machines::xeon(), &machines::gh200(), &machines::snitch()};
  return ms;
}

/// Both ways the arena consumes a summary for the mutation p -> q: the
/// read-only probe from p's arena, and the in-place rebase onto q.
void expectProbeAndRebase(const Program& p, const Program& q,
                          const MutationSummary& mut, const std::string& what) {
  CanonicalArena arena(p);
  EXPECT_EQ(arena.probe(q, mut), groundTruth(q)) << "probe: " << what;
  arena.rebase(q, mut);
  EXPECT_EQ(arena.hash(), groundTruth(q)) << "rebase: " << what;
  EXPECT_EQ(arena.text(), canonicalText(q)) << "rebase: " << what;
}

TEST(CanonicalArena, RebuildMatchesFullRenderOnEveryKernel) {
  for (const auto* cat : {&kernels::table3(), &kernels::snitchMicro()}) {
    for (const auto& k : *cat) {
      const Program p = k.build_small();
      const CanonicalArena arena(p);
      EXPECT_EQ(arena.hash(), groundTruth(p)) << k.label;
      EXPECT_EQ(arena.text(), canonicalText(p)) << k.label;
      EXPECT_EQ(arena.size(), nodeCount(p.root) - 1) << k.label;
    }
  }
}

TEST(CanonicalArena, NoneSummaryIsAnIdentityUpdate) {
  const Program p = kernels::makeSoftmax(4, 8);
  CanonicalArena arena(p);
  const std::uint64_t before = arena.hash();
  EXPECT_EQ(arena.probe(p, MutationSummary::none()), before);
  arena.rebase(p, MutationSummary::none());
  EXPECT_EQ(arena.hash(), before);
  EXPECT_EQ(arena.hash(), groundTruth(p));
}

TEST(CanonicalArena, ConservativeSummaryRecoversFromAnyStaleness) {
  // A conservative summary must resynchronize even when the tree changed in
  // ways no dirty root describes (here: a whole different program).
  const Program a = kernels::makeSoftmax(4, 8);
  const Program b = kernels::makeMatmul(4, 4, 4);
  expectProbeAndRebase(a, b, MutationSummary::conservative(), "a -> b");
}

TEST(CanonicalArena, EveryApplicableTransformSingleStep) {
  // Table-3 kernels x all three caps profiles x every action the library
  // offers on the base program: one in-place apply, then a probe and a
  // rebase from its summary, compared against a monolithic re-render. This is the exhaustive
  // single-step core of the tentpole invariant; anything reachable deeper is
  // covered statistically by the trajectory suite below.
  std::size_t checked = 0;
  for (const auto& k : kernels::table3()) {
    const Program p = k.build_small();
    for (const auto* m : profileMachines()) {
      for (const auto& a : transform::allActions(p, m->caps())) {
        Program q = p;
        MutationSummary mut;
        a.transform->applyInPlace(q, a.loc, &mut);
        expectProbeAndRebase(p, q, mut,
                             k.label + " on " + m->name() + ": " +
                                 a.describe(p));
        if (::testing::Test::HasFailure()) return;
        ++checked;
      }
    }
  }
  // The cross product must actually exercise the library, not vacuously pass.
  EXPECT_GT(checked, 500u);
}

TEST(CanonicalArena, HeaderOnlyMutationsRehashWithoutTreeRender) {
  // Memory transforms touch only the buffer header; their summaries say so.
  const Program p = kernels::makeSoftmax(4, 8);
  const auto& caps = machines::xeon().caps();
  bool exercised = false;
  for (const Transform* t :
       {&transform::setStorage(), &transform::padDim()}) {
    for (const auto& loc : t->findApplicable(p, caps)) {
      Program q = p;
      MutationSummary mut;
      t->applyInPlace(q, loc, &mut);
      EXPECT_FALSE(mut.whole_tree) << t->name();
      EXPECT_TRUE(mut.buffers_changed) << t->name();
      EXPECT_TRUE(mut.dirty_scopes.empty()) << t->name();
      expectProbeAndRebase(p, q, mut, t->name());
      exercised = true;
    }
  }
  EXPECT_TRUE(exercised);
}

/// A transform that does not override applyInPlace: the base-class fallback
/// must route it through apply() with a conservative summary, keeping every
/// summary consumer correct by default.
class UnreportedScopeDoubler : public Transform {
 public:
  std::string name() const override { return "test_unreported_doubler"; }
  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps&) const override {
    std::vector<Location> locs;
    for (const auto& c : p.root.children)
      if (c.isScope() && c.extent % 2 == 0) {
        Location l;
        l.node = c.id;
        locs.push_back(l);
      }
    return locs;
  }
  Program apply(const Program& p, const Location& loc) const override {
    Program q = p;
    Node* n = findNode(q.root, loc.node);
    require(n && n->isScope(), "test_unreported_doubler: stale location");
    n->extent *= 2;  // not semantics-preserving; irrelevant for hashing
    return q;
  }
};

TEST(CanonicalArena, DefaultApplyInPlaceReportsConservatively) {
  const UnreportedScopeDoubler t;
  const Program p = kernels::makeSoftmax(4, 8);
  const auto locs = t.findApplicable(p, machines::xeon().caps());
  ASSERT_FALSE(locs.empty());
  Program q = p;
  MutationSummary mut = MutationSummary::none();
  t.applyInPlace(q, locs[0], &mut);
  EXPECT_TRUE(mut.whole_tree);
  EXPECT_TRUE(mut.buffers_changed);
  expectProbeAndRebase(p, q, mut, t.name());
}

// --- Random trajectories: the 200-seed property walk per kernel ------------

struct TrajCase {
  std::string label;
};

void PrintTo(const TrajCase& c, std::ostream* os) { *os << c.label; }

class TrajectoryHashP : public ::testing::TestWithParam<TrajCase> {};

TEST_P(TrajectoryHashP, IncrementalHashHoldsAcrossApplyAndUndo) {
  const auto* k = kernels::findKernel(GetParam().label);
  ASSERT_NE(k, nullptr);
  const Program original = k->build_small();
  constexpr int kTrajectories = 200;
  constexpr int kMaxSteps = 5;
  for (int traj = 0; traj < kTrajectories; ++traj) {
    // Rotate the caps profile so GPU/Snitch-only transforms are walked too.
    const auto* m = profileMachines()[traj % profileMachines().size()];
    Rng rng(fnv1a(k->label, 1000003u * traj + 17));
    History h(original);
    search::DeltaContext dctx;
    ASSERT_EQ(h.currentHash(), groundTruth(h.current()));
    for (int step = 0; step < kMaxSteps; ++step) {
      const auto actions = transform::allActions(h.current(), m->caps());
      if (actions.empty()) break;
      const Action& a = actions[rng.uniform(actions.size())];
      // Delta view: the neighbor's hash, priced without a tree copy, then
      // undone — the context must land back exactly on the base hash.
      dctx.bind(h.current());
      const std::uint64_t base_hash = dctx.baseHash();
      ASSERT_EQ(base_hash, h.currentHash());
      const std::uint64_t neighbor = dctx.neighborHash(a);
      ASSERT_EQ(dctx.baseHash(), base_hash);
      // A second neighbor from the same bind proves the first undo restored
      // the scratch tree exactly (the context has no internal tripwire —
      // this is its correctness coverage).
      const Action& b = actions[rng.uniform(actions.size())];
      ASSERT_EQ(dctx.neighborHash(b), groundTruth(b.apply(h.current())))
          << k->label << " traj " << traj << " step " << step << " on "
          << m->name() << ": stale scratch after undoing "
          << a.transform->name() << ", probing " << b.transform->name();
      // Committed view: History applies in place and rebases its canonical
      // form from the transform's own mutation summary.
      h.push(a);
      const std::uint64_t full = groundTruth(h.current());
      ASSERT_EQ(h.currentHash(), full)
          << k->label << " traj " << traj << " step " << step << " on "
          << m->name() << ": " << a.transform->name();
      ASSERT_EQ(neighbor, full)
          << k->label << " traj " << traj << " step " << step << " on "
          << m->name() << ": delta hash diverged for "
          << a.transform->name();
      // Occasionally back out and verify the undo/replay path re-syncs.
      if (rng.uniform(4) == 0) {
        h.undo();
        ASSERT_EQ(h.currentHash(), groundTruth(h.current()))
            << k->label << " traj " << traj << " undo at step " << step;
      }
    }
  }
}

std::vector<TrajCase> table3Cases() {
  std::vector<TrajCase> cases;
  for (const auto& k : kernels::table3()) cases.push_back({k.label});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Table3, TrajectoryHashP,
                         ::testing::ValuesIn(table3Cases()),
                         [](const auto& info) {
                           std::string n = info.param.label;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

}  // namespace
}  // namespace perfdojo::ir
