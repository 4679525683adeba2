// Non-destructiveness: undo and replay of recorded sequences.
#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "support/common.h"
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

/// Every state the history recorded against its definition: stateBefore(i)
/// is the replay of the first i steps from the original, and current() is
/// the replay of all of them.
void expectStatesMatchReplay(const History& h, const std::string& where) {
  for (std::size_t i = 0; i <= h.size(); ++i) {
    const std::vector<Step> prefix(h.steps().begin(),
                                   h.steps().begin() + static_cast<long>(i));
    History::ReplayResult rr;
    const auto want = History::replay(h.original(), prefix, rr);
    ASSERT_TRUE(want.has_value()) << where << ": " << rr.message;
    ASSERT_EQ(ir::canonicalText(h.stateBefore(i)), ir::canonicalText(*want))
        << where << ", state before step " << i;
    ASSERT_EQ(h.stateBefore(i).next_id, want->next_id)
        << where << ", state before step " << i;
  }
  History::ReplayResult rr;
  const auto all = History::replay(h.original(), h.steps(), rr);
  ASSERT_TRUE(all.has_value()) << where << ": " << rr.message;
  ASSERT_EQ(ir::canonicalText(h.current()), ir::canonicalText(*all)) << where;
  ASSERT_EQ(h.current().next_id, all->next_id) << where;
}

TEST(History, UndoMatchesReplayOnSeededWalks) {
  // Random push/undo/truncate/append runs over every Table-3 kernel under
  // each machine's caps: after every operation each recorded state must be
  // the replay of its prefix. An append takes a tail of one to three steps
  // recorded from current().
  const std::vector<const machines::Machine*> profile = {
      &machines::xeon(), &machines::gh200(), &machines::snitch()};
  constexpr int kOps = 40;
  int truncates = 0, appends = 0;
  for (const auto& k : kernels::table3()) {
    for (const auto* m : profile) {
      Rng rng(fnv1a(k.label + "/" + m->name()));
      History h(k.build_small());
      for (int op = 0; op < kOps; ++op) {
        const std::string where = k.label + " on " + m->name() + ", op " +
                                  std::to_string(op);
        const auto actions = allActions(h.current(), m->caps());
        const std::uint64_t kind = rng.uniform(6);
        if (h.size() > 0 && (actions.empty() || kind < 2)) {
          h.undo();
        } else if (h.size() > 0 && kind == 2) {
          h.truncate(rng.uniform(h.size() + 1));
          ++truncates;
        } else if (!actions.empty() && kind == 3) {
          History tail(h.current());
          tail.push(actions[rng.uniform(actions.size())]);
          for (std::uint64_t i = rng.uniform(3); i > 0; --i) {
            const auto more = allActions(tail.current(), m->caps());
            if (more.empty()) break;
            tail.push(more[rng.uniform(more.size())]);
          }
          h.append(std::move(tail));
          ++appends;
        } else if (!actions.empty()) {
          h.push(actions[rng.uniform(actions.size())]);
        } else {
          break;
        }
        expectStatesMatchReplay(h, where);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(truncates, 0);
  EXPECT_GT(appends, 0);
}

TEST(History, FailedPushLeavesHistoryUnchanged) {
  History h(kernels::makeAdd(8, 16));
  Rng rng(5);
  h.push(pickAction(h.current(), rng));
  const std::string text = ir::canonicalText(h.current());
  const auto slocs = splitScope().findApplicable(h.current(), cpuCaps());
  ASSERT_FALSE(slocs.empty());
  Location missing = slocs[0];
  missing.node = h.current().next_id + 1000;
  EXPECT_THROW(h.push({&splitScope(), missing}), Error);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(ir::canonicalText(h.current()), text);
  expectStatesMatchReplay(h, "after a failed push");
}

}  // namespace
}  // namespace perfdojo::transform
