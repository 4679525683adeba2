// Checks that CanonicalArena::probe() is allocation-free in steady state.
//
// This binary replaces the global operator new/delete with counting
// versions. For every neighbor of a few Table-3 kernels (flat and
// heuristically scheduled), one warm-up probe pass sizes the arena's reused
// scratch; a second pass over the same neighbors must then make zero
// allocations. That covers every summary shape: a dirty subtree, and the
// full renders of the root container and of whole-tree reports, with or
// without a changed header, which render the header and every line into
// the same reused buffers.
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/arena.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/pass.h"
#include "transform/transform.h"

namespace {

// Single-threaded test: plain globals suffice.
bool g_counting = false;
std::size_t g_allocations = 0;

// The replacements share one allocate/release pair, kept out of line so the
// compiler does not match an inlined free() against a new-expression at a
// call site and warn about a mismatch.
[[gnu::noinline]] void* countedAlloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace perfdojo::ir {
namespace {

struct Neighbor {
  Program program;
  MutationSummary mut;
  std::string what;
};

TEST(ArenaProbeAllocations, SecondPassMakesNoAllocations) {
  const auto& xeon = machines::xeon();
  std::size_t probed = 0, whole_tree = 0, root_container = 0,
              header_changed = 0;
  for (const char* label : {"softmax", "layernorm_1", "matmul", "conv_1"}) {
    const auto* k = kernels::findKernel(label);
    ASSERT_NE(k, nullptr) << label;
    for (const Program& base :
         {k->build(), search::naivePass(k->build(), xeon).current()}) {
      SCOPED_TRACE(label);
      const CanonicalArena arena(base);
      std::vector<Neighbor> neighbors;
      for (const auto& a : transform::allActions(base, xeon.caps())) {
        Neighbor n{base, {}, a.describe(base)};
        a.transform->applyInPlace(n.program, a.loc, &n.mut, false);
        if (n.mut.whole_tree) ++whole_tree;
        else if (n.mut.dirty == n.program.root.id) ++root_container;
        else if (n.mut.buffers_changed) ++header_changed;
        neighbors.push_back(std::move(n));
      }
      ASSERT_FALSE(neighbors.empty());

      for (const auto& n : neighbors)
        ASSERT_EQ(arena.probe(n.program, n.mut), canonicalHash(n.program))
            << n.what;
      std::vector<std::uint64_t> hashes(neighbors.size());
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        g_allocations = 0;
        g_counting = true;
        hashes[i] = arena.probe(neighbors[i].program, neighbors[i].mut);
        g_counting = false;
        EXPECT_EQ(g_allocations, 0u) << neighbors[i].what;
      }
      for (std::size_t i = 0; i < neighbors.size(); ++i)
        EXPECT_EQ(hashes[i], canonicalHash(neighbors[i].program))
            << neighbors[i].what;
      probed += neighbors.size();
    }
  }
  // The check must cover real neighbor sets and every full-render shape,
  // not pass vacuously.
  EXPECT_GT(probed, 100u);
  EXPECT_GT(whole_tree, 0u);
  EXPECT_GT(root_container, 0u);
  EXPECT_GT(header_changed, 0u);
}

}  // namespace
}  // namespace perfdojo::ir
