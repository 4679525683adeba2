// Property suite for search::PrefixReplayer, the heuristic-structure
// candidate builder. The contract under test (src/search/prefix_replay.h):
// after every proposal, accepted or rejected, the state it returns at every
// index of the incumbent is the program History::replay builds for that
// prefix, and every checkpoint is the state at its position.
//
// Suite names contain "Search" so the CI ThreadSanitizer job's -R regex
// picks them up.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/pass.h"
#include "search/prefix_replay.h"
#include "support/common.h"
#include "support/rng.h"

namespace perfdojo::search {
namespace {

using transform::History;
using transform::Step;

constexpr std::size_t K = PrefixReplayer::kStride;

/// History::replay of the first `n` steps (the reference definition).
ir::Program replayed(const ir::Program& kernel, const std::vector<Step>& steps,
                     std::size_t n) {
  const std::vector<Step> prefix(steps.begin(),
                                 steps.begin() + static_cast<std::ptrdiff_t>(n));
  History::ReplayResult rr;
  auto p = History::replay(kernel, prefix, rr);
  EXPECT_TRUE(p.has_value()) << rr.message;
  return p ? std::move(*p) : kernel;
}

/// Canonical equality plus the id watermark: later steps address nodes by
/// id, so a prefix state must match the reference exactly, not just up to
/// renaming.
bool sameState(const ir::Program& a, const ir::Program& b) {
  return ir::canonicallyEqual(a, b) && a.next_id == b.next_id;
}

/// An accept keeps the checkpoints complete without any replay.
void expectCompleteCheckpoints(const PrefixReplayer& seq) {
  EXPECT_EQ(seq.checkpoints().size(), seq.steps().size() / K + 1);
}

/// The whole contract at the replayer's current incumbent.
void expectMatchesReplay(PrefixReplayer& seq, const ir::Program& kernel) {
  const std::vector<Step>& steps = seq.steps();
  for (std::size_t i = 0; i <= steps.size(); ++i)
    EXPECT_TRUE(sameState(seq.stateAt(i), replayed(kernel, steps, i)))
        << "state at " << i << " of " << steps.size();
  const auto& ckpt = seq.checkpoints();
  ASSERT_FALSE(ckpt.empty());
  ASSERT_LE(ckpt.size(), steps.size() / K + 1);
  for (std::size_t j = 0; j < ckpt.size(); ++j)
    EXPECT_TRUE(sameState(ckpt[j], replayed(kernel, steps, j * K)))
        << "checkpoint " << j;
}

std::vector<Step> seedSequence(const ir::Program& kernel,
                               const machines::Machine& m) {
  return heuristicPass(kernel, m).steps();
}

TEST(SearchPrefixReplay, StatesMatchReplayAlongSeededWalks) {
  // Seeded annealing-shaped walks on Table-3 kernels: each proposal is
  // checked against a full replay of its candidate, accepted with
  // probability 0.7, and then every state and checkpoint of the incumbent
  // is checked. max_steps sits below most seed lengths, so walks also spend
  // time at the cap where appends are not allowed.
  int appends = 0, replaces = 0, erases = 0;
  for (const char* label : {"softmax", "matmul", "layernorm_1"}) {
    const ir::Program kernel = kernels::findKernel(label)->build_small();
    for (const auto* m :
         {&machines::snitch(), &machines::xeon(), &machines::gh200()}) {
      SCOPED_TRACE(::testing::Message() << label << " on " << m->name());
      PrefixReplayer seq(kernel);
      ir::Program p = seq.stateAt(0);
      ASSERT_TRUE(seq.replayTail(0, seedSequence(kernel, *m), p));
      EXPECT_TRUE(sameState(p, replayed(kernel, seq.candidate(),
                                        seq.candidate().size())));
      seq.accept();
      expectCompleteCheckpoints(seq);
      expectMatchesReplay(seq, kernel);
      Rng rng(fnv1a(m->name(), fnv1a(label)));
      for (int step = 0; step < 30; ++step) {
        SCOPED_TRACE(::testing::Message() << "proposal " << step);
        const std::size_t n = seq.steps().size();
        ir::Program out;
        if (seq.propose(m->caps(), rng, /*max_steps=*/12, out)) {
          const auto& cand = seq.candidate();
          EXPECT_TRUE(sameState(out, replayed(kernel, cand, cand.size())));
          if (cand.size() > n) {
            EXPECT_LT(n, 12u);
            ++appends;
          } else if (cand.size() == n) {
            ++replaces;
          } else {
            ++erases;
          }
          if (rng.bernoulli(0.7)) {
            seq.accept();
            expectCompleteCheckpoints(seq);
          }
        }
        expectMatchesReplay(seq, kernel);
      }
    }
  }
  EXPECT_GT(appends, 0);
  EXPECT_GT(replaces, 0);
  EXPECT_GT(erases, 0);
}

class SearchPrefixReplayEdges : public ::testing::Test {
 protected:
  const machines::Machine& m = machines::xeon();
  const ir::Program kernel = kernels::findKernel("softmax")->build_small();
  const std::vector<Step> seed = seedSequence(kernel, m);
};

TEST_F(SearchPrefixReplayEdges, EraseLastAndOnlyStep) {
  ASSERT_GT(seed.size(), K);
  PrefixReplayer seq(kernel);
  seq.bind(seed);
  ir::Program p = seq.stateAt(seed.size() - 1);
  ASSERT_TRUE(seq.replayTail(seed.size() - 1, {}, p));
  seq.accept();
  EXPECT_EQ(seq.steps().size(), seed.size() - 1);
  expectCompleteCheckpoints(seq);
  expectMatchesReplay(seq, kernel);

  seq.bind({seed.front()});
  p = seq.stateAt(0);
  ASSERT_TRUE(seq.replayTail(0, {}, p));
  seq.accept();
  EXPECT_TRUE(seq.steps().empty());
  ASSERT_EQ(seq.checkpoints().size(), 1u);
  EXPECT_TRUE(sameState(seq.checkpoints()[0], kernel));
  EXPECT_TRUE(sameState(seq.stateAt(0), kernel));
}

TEST_F(SearchPrefixReplayEdges, RejectedSeedLeavesEmptyIncumbent) {
  // The annealer's seed loses to the kernel: its replay is a candidate that
  // is never accepted, so the incumbent stays empty and every proposal is
  // an append on the kernel.
  PrefixReplayer seq(kernel);
  ir::Program p = seq.stateAt(0);
  ASSERT_TRUE(seq.replayTail(0, seed, p));
  EXPECT_TRUE(seq.steps().empty());
  EXPECT_EQ(seq.checkpoints().size(), 1u);
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    ir::Program out;
    ASSERT_TRUE(seq.propose(m.caps(), rng, 48, out));
    ASSERT_EQ(seq.candidate().size(), 1u);
    EXPECT_TRUE(sameState(out, replayed(kernel, seq.candidate(), 1)));
    expectMatchesReplay(seq, kernel);
  }
}

TEST_F(SearchPrefixReplayEdges, IncumbentAtMaxStepsNeverAppends) {
  PrefixReplayer seq(kernel);
  seq.bind(seed);
  Rng rng(11);
  int proposed = 0;
  for (int i = 0; i < 24; ++i) {
    ir::Program out;
    if (!seq.propose(m.caps(), rng, static_cast<int>(seed.size()), out))
      continue;
    ++proposed;
    EXPECT_LE(seq.candidate().size(), seed.size());
    EXPECT_TRUE(sameState(out, replayed(kernel, seq.candidate(),
                                        seq.candidate().size())));
  }
  EXPECT_GT(proposed, 0);
  expectMatchesReplay(seq, kernel);
}

TEST_F(SearchPrefixReplayEdges, FailedTailLeavesCheckpointsUntouched) {
  ASSERT_GT(seed.size(), K + 1);
  PrefixReplayer seq(kernel);
  seq.bind(seed);
  (void)seq.stateAt(seed.size());  // record every checkpoint
  std::vector<std::string> before;
  for (const auto& c : seq.checkpoints()) before.push_back(ir::canonicalText(c));

  // The first K + 1 steps replay (recording a tail checkpoint at K), then a
  // step naming a node no state has throws.
  std::vector<Step> tail(seed.begin(),
                         seed.begin() + static_cast<std::ptrdiff_t>(K + 1));
  transform::Location missing;
  missing.node = kernel.next_id + 100000;
  missing.param = 4;
  tail.push_back({&transform::splitScope(), missing});
  tail.push_back(seed[K + 1]);
  ir::Program p = seq.stateAt(0);
  EXPECT_FALSE(seq.replayTail(0, tail, p));

  std::vector<std::string> after;
  for (const auto& c : seq.checkpoints()) after.push_back(ir::canonicalText(c));
  EXPECT_EQ(after, before);
  EXPECT_THROW(seq.accept(), Error);
  EXPECT_EQ(seq.steps().size(), seed.size());
  expectMatchesReplay(seq, kernel);
}

}  // namespace
}  // namespace perfdojo::search
