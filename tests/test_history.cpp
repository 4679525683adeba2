// Non-destructiveness: undo and replay of recorded sequences.
#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "support/rng.h"
#include "transform/history.h"

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
