#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "libgen/libgen.h"
#include "machines/machine.h"
#include "search/pass.h"

namespace perfdojo::libgen {
namespace {

std::vector<kernels::KernelInfo> smallSet() {
  return {*kernels::findKernel("mul"), *kernels::findKernel("reducemean"),
          *kernels::findKernel("softmax")};
}

TEST(LibGen, HeuristicLibrarySpeedsUpEveryKernel) {
  const auto lib = generateLibrary(smallSet(), machines::xeon());
  ASSERT_EQ(lib.entries.size(), 3u);
  for (const auto& e : lib.entries) {
    EXPECT_LT(e.tuned_runtime, e.baseline_runtime) << e.label;
    EXPECT_NE(e.source.find("void perfdojo_" + e.label), std::string::npos);
    EXPECT_FALSE(e.recipe.empty());
  }
}

TEST(LibGen, HeaderDeclaresEverything) {
  const auto lib = generateLibrary(smallSet(), machines::xeon());
  const std::string h = lib.header();
  EXPECT_NE(h.find("extern \"C\""), std::string::npos);
  for (const auto& e : lib.entries)
    EXPECT_NE(h.find("perfdojo_" + e.label), std::string::npos);
}

TEST(LibGen, ManifestReportsSpeedups) {
  const auto lib = generateLibrary(smallSet(), machines::xeon());
  const std::string m = lib.manifest();
  EXPECT_NE(m.find("xeon"), std::string::npos);
  EXPECT_NE(m.find("softmax:"), std::string::npos);
  EXPECT_NE(m.find("x, 1 evaluations"), std::string::npos);
}

TEST(LibGen, WritesFilesToDisk) {
  const std::string dir = ::testing::TempDir() + "/pdlib_test";
  const auto lib = generateLibrary(smallSet(), machines::xeon());
  const auto files = writeLibrary(lib, dir);
  EXPECT_EQ(files.size(), 3u + 2u);  // sources + header + manifest
  for (const auto& f : files) EXPECT_TRUE(std::filesystem::exists(f));
  std::ifstream hdr(dir + "/perfdojo_lib.h");
  EXPECT_TRUE(hdr.good());
}

TEST(LibGen, SearchOptimizerRecordsBudget) {
  LibGenConfig cfg;
  cfg.optimizer = Optimizer::Search;
  cfg.search_budget = 40;
  const auto lib = generateLibrary({*kernels::findKernel("mul")},
                                   machines::xeon(), cfg);
  EXPECT_GE(lib.entries[0].evaluations, 40);
  EXPECT_LE(lib.entries[0].tuned_runtime, lib.entries[0].baseline_runtime);
}

TEST(LibGen, OptimizerNames) {
  EXPECT_STREQ(optimizerName(Optimizer::None), "none");
  EXPECT_STREQ(optimizerName(Optimizer::PerfLLM), "perfllm");
}

TEST(LibGen, ManifestGuardsDegenerateRuntimes) {
  // A zero or non-finite tuned runtime (degenerate cost model, unmeasured
  // entry) used to print an "infx" / "nanx" speedup into the manifest.
  Library lib;
  lib.machine = "xeon";
  LibraryEntry zero;
  zero.label = "divzero";
  zero.baseline_runtime = 1.0;
  zero.tuned_runtime = 0.0;
  LibraryEntry nonfinite;
  nonfinite.label = "nank";
  nonfinite.baseline_runtime = std::nan("");
  nonfinite.tuned_runtime = 2.0;
  LibraryEntry fine;
  fine.label = "ok";
  fine.baseline_runtime = 4.0;
  fine.tuned_runtime = 2.0;
  lib.entries = {zero, nonfinite, fine};
  const std::string m = lib.manifest();
  EXPECT_NE(m.find("divzero: 1s -> 0s (n/a, 0 evaluations)"),
            std::string::npos) << m;
  EXPECT_NE(m.find("nank:"), std::string::npos);
  EXPECT_NE(m.find("ok: 4s -> 2s (2x, 0 evaluations)"), std::string::npos);
  EXPECT_EQ(m.find("infx"), std::string::npos) << m;
  EXPECT_EQ(m.find("nanx"), std::string::npos) << m;
}

TEST(LibGen, SharedCacheWarmsAcrossKernels) {
  // Two labels over the same program (a reduction-family alias): the second
  // kernel's baseline and tuned states must come out of the shared memo
  // table. The heuristic arm used to bypass the cache entirely, so this
  // asserts both that it is wired and that it pays off across kernels.
  auto base = *kernels::findKernel("reducemean");
  auto alias = base;
  alias.label = "reducemean_alias";
  const auto lib = generateLibrary({base, alias}, machines::xeon());
  ASSERT_EQ(lib.entries.size(), 2u);
  EXPECT_EQ(lib.entries[0].tuned_runtime, lib.entries[1].tuned_runtime);
  EXPECT_GT(lib.cache_stats.requests, 0);
  EXPECT_GE(lib.cache_stats.hits, 2);  // alias: baseline + tuned both warm
  EXPECT_EQ(lib.cache_stats.hits + lib.cache_stats.misses,
            lib.cache_stats.requests);
}

TEST(LibGen, PerfLLMArmRoutesThroughSharedCache) {
  LibGenConfig cfg;
  cfg.optimizer = Optimizer::PerfLLM;
  cfg.rl_episodes = 6;
  const auto lib =
      generateLibrary({*kernels::findKernel("mul")}, machines::xeon(), cfg);
  // RL revisits transformed states constantly; with the cache wired in, the
  // episode loop must produce memo hits (it used to call m.evaluate raw).
  EXPECT_GT(lib.cache_stats.requests, 0);
  EXPECT_GT(lib.cache_stats.hits, 0);
}

TEST(LibGen, TuneOneMatchesGenerateLibraryEntry) {
  const auto& k = *kernels::findKernel("softmax");
  search::EvalCache cache;
  const auto one = tuneOne(k, machines::xeon(), LibGenConfig{}, &cache);
  const auto lib = generateLibrary({k}, machines::xeon());
  ASSERT_EQ(lib.entries.size(), 1u);
  EXPECT_EQ(one.recipe, lib.entries[0].recipe);
  EXPECT_EQ(one.tuned_runtime, lib.entries[0].tuned_runtime);
  EXPECT_EQ(one.source, lib.entries[0].source);
}

/// The heuristic recipe by its definition: describe each step against the
/// state it applies to, built by re-applying every step from the original.
std::string referenceRecipe(const transform::History& h) {
  std::string out;
  ir::Program p = h.original();
  for (const auto& s : h.steps()) {
    out += s.transform->describe(p, s.loc) + "\n";
    p = s.transform->apply(p, s.loc);
  }
  return out;
}

TEST(LibGen, HeuristicRecipeMatchesReplayedDefinition) {
  for (const auto* m : {&machines::snitch(), &machines::xeon(),
                        &machines::gh200(), &machines::mi300a()}) {
    for (const auto& k : kernels::table3()) {
      const auto h = search::heuristicPass(k.build(), *m);
      const auto e = tuneOne(k, *m, LibGenConfig{});
      EXPECT_EQ(e.recipe, referenceRecipe(h)) << k.label << " on "
                                              << m->name();
    }
  }
}

}  // namespace
}  // namespace perfdojo::libgen
