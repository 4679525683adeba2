// ir::ProgramIndex against the tree walks it replaces, and the lifetime
// rule ActionSet relies on: an index lives only for the call that built it,
// and what a set keeps between calls holds no pointer into any program.
//
// Suite names contain "ProgramIndex" so the CI ThreadSanitizer job's -R
// regex picks them up (the copied-set test updates copies on four threads).
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ir/incremental.h"
#include "ir/program_index.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "support/rng.h"
#include "transform/action_set.h"
#include "transform/deps.h"
#include "transform/transform.h"

namespace perfdojo::ir {
namespace {

const std::vector<const machines::Machine*>& capsProfiles() {
  static const std::vector<const machines::Machine*> ms = {
      &machines::xeon(), &machines::gh200(), &machines::mi300a(),
      &machines::snitch()};
  return ms;
}

void expectSameOps(const std::vector<OpInfo>& want, std::span<const OpInfo> got,
                   const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const OpInfo& w = want[i];
    const OpInfo& g = got[i];
    ASSERT_EQ(g.op, w.op) << where << " op " << i;
    ASSERT_EQ(g.write.access, w.write.access) << where << " op " << i;
    ASSERT_EQ(g.write.buffer, w.write.buffer) << where << " op " << i;
    ASSERT_EQ(g.is_accumulation, w.is_accumulation) << where << " op " << i;
    ASSERT_EQ(g.reads().size(), w.reads().size()) << where << " op " << i;
    for (std::size_t r = 0; r < w.reads().size(); ++r) {
      ASSERT_EQ(g.reads()[r].access, w.reads()[r].access) << where << " op " << i;
      ASSERT_EQ(g.reads()[r].buffer, w.reads()[r].buffer) << where << " op " << i;
    }
  }
}

/// Every field of a fresh index of `p` equals the walk.h/deps.h helper it
/// replaces.
void expectIndexMatchesWalks(const Program& p) {
  const ProgramIndex ix(p);
  ASSERT_EQ(ix.rootId(), p.root.id);
  ASSERT_EQ(&ix.program(), &p);

  // Lookup by id, including ids that no node carries.
  for (NodeId id = 0; id < p.next_id + 3; ++id) {
    ASSERT_EQ(ix.node(id), findNode(p.root, id)) << "id " << id;
    ASSERT_EQ(ix.known(id), findNode(p.root, id) != nullptr) << "id " << id;
  }

  std::vector<const Node*> preorder;
  visit(p.root, [&](const Node& n) { preorder.push_back(&n); });
  for (std::size_t k = 0; k < preorder.size(); ++k) {
    const Node& n = *preorder[k];
    const std::string where = "node " + std::to_string(n.id);
    const auto& slot = ix.shape()[n.id];

    // Pre-order interval.
    ASSERT_EQ(slot.pre, static_cast<std::int32_t>(k)) << where;
    ASSERT_EQ(slot.end, static_cast<std::int32_t>(k + nodeCount(n))) << where;
    const auto sub = ix.subtree(n.id);
    ASSERT_EQ(sub.size(), nodeCount(n)) << where;
    for (std::size_t i = 0; i < sub.size(); ++i)
      ASSERT_EQ(sub[i], preorder[k + i]) << where;

    // Parent, child index, depth and the enclosing-scope chain.
    const Node* parent = findParent(p.root, n.id);
    ASSERT_EQ(ix.parent(n.id), parent) << where;
    ASSERT_EQ(ix.childIndex(n.id), parent ? childIndex(*parent, n.id) : -1)
        << where;
    const std::vector<NodeId> chain = enclosingScopes(p.root, n.id);
    ASSERT_EQ(ix.enclosingScopes(n.id), chain) << where;
    ASSERT_EQ(ix.depth(n.id),
              n.id == p.root.id ? 0 : static_cast<int>(chain.size()) + 1)
        << where;

    // Annotations above and below, one LoopAnno at a time.
    for (int a = 0; a <= static_cast<int>(LoopAnno::Frep); ++a) {
      const auto anno = static_cast<LoopAnno>(a);
      bool above = false;
      for (NodeId s : chain) above |= findNode(p.root, s)->anno == anno;
      bool below = false;
      visit(n, [&](const Node& c) { below |= c.isScope() && c.anno == anno; });
      ASSERT_EQ(ix.nestedUnder(n.id, annoBit(anno)), above) << where << " anno " << a;
      ASSERT_EQ(ix.subtreeHas(n.id, annoBit(anno)), below) << where << " anno " << a;
    }

    // Scopes within.
    std::vector<const Node*> scopes;
    ix.forEachScope(n.id, [&](const Node& s) { scopes.push_back(&s); });
    ASSERT_EQ(scopes, collectScopesWithin(p.root, n.id)) << where;

    // Ops of the subtree, and of every run of consecutive children.
    expectSameOps(transform::collectOpInfos(p, n), ix.ops(n.id), where);
    for (std::size_t first = 0; first < n.children.size(); ++first) {
      for (std::size_t last = first; last <= n.children.size(); ++last) {
        std::vector<OpInfo> want;
        for (std::size_t c = first; c < last; ++c)
          for (const OpInfo& o : transform::collectOpInfos(p, n.children[c]))
            want.push_back(o);
        expectSameOps(want, ix.ops(n, first, last),
                      where + " children [" + std::to_string(first) + ", " +
                          std::to_string(last) + ")");
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Array -> buffer, for every declared array and one undeclared name.
  for (const Buffer& b : p.buffers)
    for (const std::string& a : b.arrays)
      ASSERT_EQ(ix.bufferOf(a), p.bufferOfArray(a)) << "array " << a;
  EXPECT_EQ(ix.bufferOf("__no_such_array"), nullptr);
}

/// A Table-3 kernel and the number of moves its seeded walks take over the
/// four caps profiles. A walk ends early at a state that offers no action.
struct KernelWalk {
  const char* label;
  int states;
};

void PrintTo(const KernelWalk& w, std::ostream* os) { *os << w.label; }

constexpr KernelWalk kKernelWalks[] = {
    {"add", 152},         {"batchnorm_1", 800}, {"batchnorm_2", 800},
    {"bmm", 800},         {"conv_1", 76},       {"conv_2", 145},
    {"layernorm_1", 800}, {"layernorm_2", 800}, {"matmul", 661},
    {"mul", 118},         {"reducemean", 800},  {"relu", 174},
    {"relu_ffn", 800},    {"rmsnorm", 800},     {"softmax", 800},
    {"swiglu", 800},
};

constexpr int totalWalkStates() {
  int n = 0;
  for (const KernelWalk& w : kKernelWalks) n += w.states;
  return n;
}
// The sweep as a whole must still take more than 100 moves per
// (kernel, profile) pair on average.
static_assert(totalWalkStates() > 64 * 100);

/// One case per Table-3 kernel, so that no case of the sweep comes near the
/// per-case test timeout under ThreadSanitizer.
class ProgramIndexWalks : public ::testing::TestWithParam<KernelWalk> {};

TEST_P(ProgramIndexWalks, MatchesWalkHelpersAlongSeededWalks) {
  // The kernel on every caps profile, before and after each accepted move
  // of a seeded 200-step random walk.
  const auto* k = kernels::findKernel(GetParam().label);
  ASSERT_NE(k, nullptr);
  int states = 0;
  for (const auto* m : capsProfiles()) {
    SCOPED_TRACE(::testing::Message() << k->label << " on " << m->name());
    Rng rng(1);
    Program p = k->build();
    expectIndexMatchesWalks(p);
    if (HasFatalFailure()) return;
    for (int step = 0; step < 200; ++step) {
      const auto actions = transform::allActions(p, m->caps());
      if (actions.empty()) break;
      const auto& a = actions[rng.uniform(actions.size())];
      SCOPED_TRACE(::testing::Message() << "step " << step << ": "
                                        << a.describe(p));
      a.transform->applyInPlace(p, a.loc, nullptr);
      expectIndexMatchesWalks(p);
      if (HasFatalFailure()) return;
      ++states;
    }
  }
  EXPECT_EQ(states, GetParam().states);
}

TEST(ProgramIndex, WalksCoverEveryTable3Kernel) {
  std::vector<std::string> walked;
  for (const KernelWalk& w : kKernelWalks) walked.push_back(w.label);
  std::vector<std::string> table3;
  for (const auto& k : kernels::table3()) table3.push_back(k.label);
  EXPECT_EQ(walked, table3);
}

INSTANTIATE_TEST_SUITE_P(Table3, ProgramIndexWalks,
                         ::testing::ValuesIn(kKernelWalks));

TEST(ProgramIndex, CopiedActionSetUpdatesAgainstAnotherProgram) {
  // The exact tier's replayIndexed pattern: one set is bound on the kernel,
  // and each worker copies it and updates the copy against its own Program
  // object. The program the set was bound on is gone before any copy is
  // made, so a set that kept a pointer into it would read freed memory.
  for (const char* label : {"softmax", "layernorm_1", "matmul", "mul"}) {
    for (const auto* m : {&machines::xeon(), &machines::snitch()}) {
      SCOPED_TRACE(::testing::Message() << label << " on " << m->name());
      const auto* k = kernels::findKernel(label);
      ASSERT_NE(k, nullptr);
      transform::ActionSet kernel_set;
      {
        const Program bound = k->build();
        kernel_set.bind(bound, m->caps());
      }
      const Program kernel = k->build();
      std::vector<std::string> failures(4);
      std::vector<std::thread> workers;
      for (std::size_t w = 0; w < failures.size(); ++w) {
        workers.emplace_back([&, w] {
          Rng rng(w + 1);
          transform::ActionSet aset = kernel_set;
          Program p = kernel;
          for (int step = 0; step < 12 && !aset.actions().empty(); ++step) {
            const auto a = aset.actions()[rng.uniform(aset.actions().size())];
            MutationSummary mut;
            a.transform->applyInPlace(p, a.loc, &mut);
            aset.update(p, mut);
            const auto fresh = transform::allActions(p, m->caps());
            bool same = fresh.size() == aset.actions().size();
            for (std::size_t i = 0; same && i < fresh.size(); ++i)
              same = fresh[i].transform == aset.actions()[i].transform &&
                     fresh[i].loc == aset.actions()[i].loc;
            if (!same) {
              failures[w] = "worker " + std::to_string(w) + " step " +
                            std::to_string(step) + " after " + a.describe(p);
              return;
            }
          }
        });
      }
      for (auto& t : workers) t.join();
      for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;
      std::string detail;
      // The set everyone copied is itself unchanged.
      EXPECT_TRUE(kernel_set.selfCheck(kernel, &detail)) << detail;
    }
  }
}

}  // namespace
}  // namespace perfdojo::ir
