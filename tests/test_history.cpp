// Non-destructiveness: undo and surgical sequence editing by replay.
#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "support/rng.h"
#include "transform/history.h"
#include "verify/verifier.h"

namespace perfdojo::transform {
namespace {

MachineCaps cpuCaps() {
  MachineCaps c;
  c.vector_widths = {4, 8};
  return c;
}

Action pickAction(const ir::Program& p, Rng& rng) {
  auto actions = allActions(p, cpuCaps());
  return actions[rng.uniform(actions.size())];
}

TEST(History, UndoRestoresCanonicalText) {
  History h(kernels::makeSoftmax(4, 8));
  Rng rng(3);
  std::vector<std::string> snapshots = {ir::canonicalText(h.current())};
  for (int i = 0; i < 6; ++i) {
    h.push(pickAction(h.current(), rng));
    snapshots.push_back(ir::canonicalText(h.current()));
  }
  for (int i = 6; i > 0; --i) {
    h.undo();
    EXPECT_EQ(ir::canonicalText(h.current()), snapshots[static_cast<std::size_t>(i - 1)]);
  }
  EXPECT_THROW(h.undo(), Error);
}

TEST(History, EraseMiddleStepReplays) {
  History h(kernels::makeAdd(8, 16));
  Rng rng(5);
  for (int i = 0; i < 5; ++i) h.push(pickAction(h.current(), rng));
  const std::size_t before = h.size();
  // Erase steps until one succeeds (some suffixes depend on earlier steps).
  bool erased = false;
  for (std::size_t i = 0; i < before && !erased; ++i) {
    auto r = h.eraseStep(i);
    if (r.ok) erased = true;
  }
  if (erased) {
    EXPECT_EQ(h.size(), before - 1);
    const auto v = verify::verifyEquivalent(h.original(), h.current());
    EXPECT_TRUE(v.equivalent) << v.detail;
  }
}

TEST(History, FailedEditLeavesStateUntouched) {
  History h(kernels::makeAdd(8, 16));
  // split then vectorize the split loop; erasing the split invalidates the
  // vectorize step, so the edit must fail atomically.
  auto slocs = splitScope().findApplicable(h.current(), cpuCaps());
  Location split_loc;
  for (const auto& l : slocs)
    if (l.param == 8) split_loc = l;
  ASSERT_NE(split_loc.node, ir::kInvalidNode);
  h.push({&splitScope(), split_loc});
  auto vlocs = vectorize().findApplicable(h.current(), cpuCaps());
  ASSERT_FALSE(vlocs.empty());
  h.push({&vectorize(), vlocs[0]});
  const std::string snapshot = ir::canonicalText(h.current());
  auto r = h.eraseStep(0);
  EXPECT_FALSE(r.ok);
  // In the edited sequence the dangling vectorize sits at index 0.
  EXPECT_EQ(r.failed_step, 0u);
  EXPECT_EQ(ir::canonicalText(h.current()), snapshot);
  EXPECT_EQ(h.size(), 2u);
}

TEST(History, InsertAndReplace) {
  History h(kernels::makeSoftmax(4, 8));
  Rng rng(7);
  for (int i = 0; i < 3; ++i) h.push(pickAction(h.current(), rng));
  // Insert a no-op-ish reorder at the front if one applies to the original.
  auto actions = allActions(h.original(), cpuCaps());
  ASSERT_FALSE(actions.empty());
  auto r = h.insertStep(0, actions[0]);
  if (r.ok) {
    EXPECT_EQ(h.size(), 4u);
    const auto v = verify::verifyEquivalent(h.original(), h.current());
    EXPECT_TRUE(v.equivalent) << v.detail;
  }
}

TEST(History, FailedReplayReportsStepAndLeavesBaseUntouched) {
  // Replay mutates one working copy in place; a step that no longer applies
  // must still be reported by index and message, with no program returned
  // and the base program unchanged.
  const ir::Program base = kernels::makeAdd(8, 16);
  const std::string base_text = ir::canonicalText(base);
  const ir::NodeId base_next_id = base.next_id;
  const auto slocs = splitScope().findApplicable(base, cpuCaps());
  ASSERT_FALSE(slocs.empty());
  Location missing = slocs[0];
  missing.node = base.next_id + 1000;  // no replayed state has this node
  const std::vector<Step> steps = {{&splitScope(), slocs[0]},
                                   {&splitScope(), missing},
                                   {&splitScope(), slocs[0]}};
  History::ReplayResult rr;
  const auto p = History::replay(base, steps, rr);
  EXPECT_FALSE(p.has_value());
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.failed_step, 1u);
  EXPECT_EQ(rr.message, "split_scope: location not applicable to this program");
  EXPECT_EQ(ir::canonicalText(base), base_text);
  EXPECT_EQ(base.next_id, base_next_id);
}

TEST(History, ReplayFromScratchMatchesIncremental) {
  History h(kernels::makeReduceMean(8, 16));
  Rng rng(11);
  for (int i = 0; i < 5; ++i) h.push(pickAction(h.current(), rng));
  History::ReplayResult rr;
  auto p = History::replay(h.original(), h.steps(), rr);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(ir::canonicallyEqual(*p, h.current()));
}

}  // namespace
}  // namespace perfdojo::transform
