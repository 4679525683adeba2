// Property suite for search::PrefixReplayer, the heuristic-structure
// candidate builder. The contract under test (src/search/prefix_replay.h):
// after every proposal, accept and bind, the recorded steps are a prefix of
// the incumbent's and every recorded state is the program History::replay
// builds for its prefix; an accept or a bind of a recorded History leaves
// the record complete, and a rebind keeps exactly the shared prefix.
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

bool sameStep(const Step& a, const Step& b) {
  return a.transform == b.transform && a.loc == b.loc;
}

/// Length of the longest common prefix of two step sequences.
std::size_t sharedPrefix(const std::vector<Step>& a, const std::vector<Step>& b) {
  std::size_t k = 0;
  while (k < a.size() && k < b.size() && sameStep(a[k], b[k])) ++k;
  return k;
}

/// The contract at the replayer's current incumbent, read without recording
/// anything: the record is a prefix of the incumbent, and each recorded
/// state is the replay of its prefix.
void expectRecordMatchesReplay(const PrefixReplayer& seq,
                               const ir::Program& kernel) {
  const History& rec = seq.recorded();
  ASSERT_LE(rec.size(), seq.steps().size());
  EXPECT_EQ(sharedPrefix(rec.steps(), seq.steps()), rec.size())
      << "recorded steps are not a prefix of the incumbent";
  for (std::size_t i = 0; i <= rec.size(); ++i)
    EXPECT_TRUE(sameState(rec.stateBefore(i), replayed(kernel, rec.steps(), i)))
        << "recorded state " << i << " of " << rec.size();
}

void expectCompleteRecord(const PrefixReplayer& seq) {
  EXPECT_EQ(seq.recorded().size(), seq.steps().size());
}

/// One case per kernel, so that no case of the sweep comes near the
/// per-case test timeout under ThreadSanitizer.
class SearchPrefixReplayWalks : public ::testing::TestWithParam<const char*> {};

/// Whether the walks on `label` can append at all: the heuristic seeds of
/// softmax and layernorm_1 are longer than the walks' max_steps, so every
/// one of their candidates replaces or erases a step.
bool walkAppends(const std::string& label) { return label == "matmul"; }

TEST_P(SearchPrefixReplayWalks, StatesMatchReplayAlongSeededWalks) {
  // Seeded walks on a Table-3 kernel, shaped like both drivers: each proposal
  // is checked against a full replay of its candidate and accepted with
  // probability 0.6 (the annealer); otherwise, with probability 0.3, the
  // replayer is rebound to an earlier incumbent or candidate (random
  // sampling's parent draw). max_steps sits below most seed lengths, so walks
  // also spend time at the cap where appends are not allowed.
  int appends = 0, replaces = 0, erases = 0, rebinds = 0, partial = 0;
  const char* label = GetParam();
  const ir::Program kernel = kernels::findKernel(label)->build_small();
  for (const auto* m :
       {&machines::snitch(), &machines::xeon(), &machines::gh200()}) {
    SCOPED_TRACE(::testing::Message() << label << " on " << m->name());
    PrefixReplayer seq(kernel);
    seq.bind(heuristicPass(kernel, *m));
    expectCompleteRecord(seq);
    expectRecordMatchesReplay(seq, kernel);
    std::vector<std::vector<Step>> pool = {seq.steps()};
    Rng rng(fnv1a(m->name(), fnv1a(label)));
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(::testing::Message() << "proposal " << step);
      const std::size_t n = seq.steps().size();
      if (seq.propose(m->caps(), rng, /*max_steps=*/12)) {
        const auto& cand = seq.candidate();
        EXPECT_TRUE(sameState(seq.candidateProgram(),
                              replayed(kernel, cand, cand.size())));
        if (cand.size() > n) {
          EXPECT_LT(n, 12u);
          ++appends;
        } else if (cand.size() == n) {
          ++replaces;
        } else {
          ++erases;
        }
        pool.push_back(cand);
        if (rng.bernoulli(0.6)) {
          seq.accept();
          expectCompleteRecord(seq);
        }
      }
      expectRecordMatchesReplay(seq, kernel);
      if (rng.bernoulli(0.3)) {
        const std::vector<Step> old = seq.recorded().steps();
        const std::vector<Step>& next = pool[rng.uniform(pool.size())];
        seq.bind(next);
        ++rebinds;
        const std::size_t k = sharedPrefix(old, next);
        EXPECT_EQ(seq.recorded().size(), k) << "rebind keeps the shared prefix";
        if (k < next.size()) ++partial;
        expectRecordMatchesReplay(seq, kernel);
      }
    }
  }
  // Across the three cases, every kind of proposal and rebind occurs.
  if (walkAppends(label)) {
    EXPECT_GT(appends, 0);
  }
  EXPECT_GT(replaces, 0);
  EXPECT_GT(erases, 0);
  EXPECT_GT(rebinds, 0);
  EXPECT_GT(partial, 0);
}

INSTANTIATE_TEST_SUITE_P(Table3, SearchPrefixReplayWalks,
                         ::testing::Values("softmax", "matmul", "layernorm_1"));

class SearchPrefixReplayEdges : public ::testing::Test {
 protected:
  const machines::Machine& m = machines::xeon();
  const ir::Program kernel = kernels::findKernel("softmax")->build_small();
  const History pass = heuristicPass(kernel, m);
  const std::vector<Step> seed = pass.steps();

  /// The seed's first `k` steps followed by an action at state k that is not
  /// seed[k].
  std::vector<Step> sibling(std::size_t k) const {
    std::vector<Step> s(seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(k));
    for (const auto& a : transform::allActions(pass.stateBefore(k), m.caps())) {
      const Step step{a.transform, a.loc};
      if (k < seed.size() && sameStep(step, seed[k])) continue;
      s.push_back(step);
      return s;
    }
    ADD_FAILURE() << "no second action at state " << k;
    return s;
  }
};

TEST_F(SearchPrefixReplayEdges, EraseLastAndOnlyStep) {
  ASSERT_GT(seed.size(), 1u);
  PrefixReplayer seq(kernel);
  seq.bind(seed);
  ASSERT_TRUE(seq.replayTail(seed.size() - 1, {}));
  EXPECT_TRUE(sameState(seq.candidateProgram(), pass.stateBefore(seed.size() - 1)));
  seq.accept();
  EXPECT_EQ(seq.steps().size(), seed.size() - 1);
  expectCompleteRecord(seq);
  expectRecordMatchesReplay(seq, kernel);

  seq.bind({seed.front()});
  EXPECT_EQ(seq.recorded().size(), 1u);
  ASSERT_TRUE(seq.replayTail(0, {}));
  seq.accept();
  EXPECT_TRUE(seq.steps().empty());
  expectCompleteRecord(seq);
  EXPECT_TRUE(sameState(seq.recorded().current(), kernel));
  EXPECT_TRUE(sameState(seq.stateAt(0), kernel));
}

TEST_F(SearchPrefixReplayEdges, RejectedSeedLeavesEmptyIncumbent) {
  // The annealer's seed loses to the kernel: it is never bound, so the
  // incumbent stays empty and every proposal is an append on the kernel.
  PrefixReplayer seq(kernel);
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(seq.propose(m.caps(), rng, 48));
    ASSERT_EQ(seq.candidate().size(), 1u);
    EXPECT_TRUE(sameState(seq.candidateProgram(),
                          replayed(kernel, seq.candidate(), 1)));
    EXPECT_TRUE(seq.steps().empty());
    EXPECT_EQ(seq.recorded().size(), 0u);
    expectRecordMatchesReplay(seq, kernel);
  }
}

TEST_F(SearchPrefixReplayEdges, IncumbentAtMaxStepsNeverAppends) {
  PrefixReplayer seq(kernel);
  seq.bind(seed);
  Rng rng(11);
  int proposed = 0;
  for (int i = 0; i < 24; ++i) {
    if (!seq.propose(m.caps(), rng, static_cast<int>(seed.size()))) continue;
    ++proposed;
    EXPECT_LE(seq.candidate().size(), seed.size());
    EXPECT_TRUE(sameState(seq.candidateProgram(),
                          replayed(kernel, seq.candidate(),
                                   seq.candidate().size())));
  }
  EXPECT_GT(proposed, 0);
  expectRecordMatchesReplay(seq, kernel);
}

TEST_F(SearchPrefixReplayEdges, BindHistoryAdoptsThePassRecord) {
  PrefixReplayer seq(kernel);
  seq.bind(History(pass));
  ASSERT_EQ(seq.steps().size(), seed.size());
  EXPECT_EQ(sharedPrefix(seq.steps(), seed), seed.size());
  expectCompleteRecord(seq);
  for (std::size_t i = 0; i <= seed.size(); ++i)
    EXPECT_TRUE(sameState(seq.recorded().stateBefore(i), pass.stateBefore(i)))
        << "state " << i;
  expectRecordMatchesReplay(seq, kernel);
}

TEST_F(SearchPrefixReplayEdges, RebindToSiblingKeepsSharedPrefix) {
  ASSERT_GT(seed.size(), 4u);
  const std::size_t k = seed.size() / 2;
  PrefixReplayer seq(kernel);
  seq.bind(History(pass));
  const std::vector<Step> sib = sibling(k);
  seq.bind(sib);
  EXPECT_EQ(seq.recorded().size(), k);
  expectRecordMatchesReplay(seq, kernel);
  EXPECT_TRUE(sameState(seq.stateAt(sib.size()), replayed(kernel, sib, sib.size())));
  expectCompleteRecord(seq);

  // Back to the seed: the sibling's last step is dropped, and a bind never
  // records anything.
  seq.bind(seed);
  EXPECT_EQ(seq.recorded().size(), k);
  expectRecordMatchesReplay(seq, kernel);
}

TEST_F(SearchPrefixReplayEdges, RebindDifferingAtStepZeroKeepsOnlyKernel) {
  PrefixReplayer seq(kernel);
  seq.bind(History(pass));
  const std::vector<Step> sib = sibling(0);
  seq.bind(sib);
  EXPECT_EQ(seq.recorded().size(), 0u);
  EXPECT_TRUE(sameState(seq.recorded().current(), kernel));
  EXPECT_TRUE(sameState(seq.stateAt(1), replayed(kernel, sib, 1)));
}

TEST_F(SearchPrefixReplayEdges, FailedTailLeavesRecordUntouched) {
  ASSERT_GT(seed.size(), 5u);
  PrefixReplayer seq(kernel);
  seq.bind(seed);
  (void)seq.stateAt(seed.size());  // record every state
  std::vector<std::string> before;
  for (std::size_t i = 0; i <= seq.recorded().size(); ++i)
    before.push_back(ir::canonicalText(seq.recorded().stateBefore(i)));

  // The first 5 steps record, then a step naming a node no state has throws.
  std::vector<Step> tail(seed.begin(), seed.begin() + 5);
  transform::Location missing;
  missing.node = kernel.next_id + 100000;
  missing.param = 4;
  tail.push_back({&transform::splitScope(), missing});
  tail.push_back(seed[5]);
  EXPECT_FALSE(seq.replayTail(0, tail));

  std::vector<std::string> after;
  for (std::size_t i = 0; i <= seq.recorded().size(); ++i)
    after.push_back(ir::canonicalText(seq.recorded().stateBefore(i)));
  EXPECT_EQ(after, before);
  EXPECT_THROW(seq.accept(), Error);
  EXPECT_THROW((void)seq.candidateProgram(), Error);
  EXPECT_EQ(sharedPrefix(seq.steps(), seed), seed.size());
  EXPECT_EQ(seq.steps().size(), seed.size());
  expectCompleteRecord(seq);
  expectRecordMatchesReplay(seq, kernel);
}

}  // namespace
}  // namespace perfdojo::search
