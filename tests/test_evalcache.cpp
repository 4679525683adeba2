// The evaluation layer: memo-table accounting, parallel-vs-serial search
// determinism, and concurrent-access safety (run under PERFDOJO_SANITIZE=
// thread to validate the locking discipline).
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/evalcache.h"
#include "search/parallel_eval.h"
#include "search/search.h"

namespace perfdojo::search {
namespace {

TEST(EvalCache, HitMissAccounting) {
  EvalCache cache;
  const auto p = kernels::makeSoftmax(8, 8);
  const auto& m = machines::xeon();

  const double c1 = cache.evaluate(m, p);
  const double c2 = cache.evaluate(m, p);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c1, m.evaluate(p));

  auto s = cache.stats();
  EXPECT_EQ(s.requests, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1u);
}

TEST(EvalCache, KeysAreMachineSpecific) {
  EvalCache cache;
  const auto p = kernels::makeSoftmax(8, 8);
  // The same canonical program priced on two targets must yield two entries
  // with the respective model's cost, not one shared entry.
  const double cx = cache.evaluate(machines::xeon(), p);
  const double cs = cache.evaluate(machines::snitch(), p);
  EXPECT_EQ(cx, machines::xeon().evaluate(p));
  EXPECT_EQ(cs, machines::snitch().evaluate(p));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(EvalCache, LookupInsertAreUncounted) {
  EvalCache cache;
  const auto p = kernels::makeAdd(4, 4);
  const auto& m = machines::xeon();
  const std::uint64_t h = ir::canonicalHash(p);

  double v = 0;
  EXPECT_FALSE(cache.lookup(m, h, v));
  cache.insert(m, h, 1.5);
  ASSERT_TRUE(cache.lookup(m, h, v));
  EXPECT_EQ(v, 1.5);
  // The uncounted primitives exist so SearchStats can keep its own books.
  EXPECT_EQ(cache.stats().requests, 0);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(EvalCache, SelfCheckCrossValidatesHashImplementations) {
  // selfCheck must compare the monolithic render against an independent
  // arena bind (the old version hashed the same way twice, which
  // could only ever agree with itself), and must flag a stale maintained
  // hash handed in by an incremental caller.
  EvalCache cache;
  const auto p = kernels::makeSoftmax(8, 8);
  const auto& m = machines::xeon();
  std::string detail;
  const std::uint64_t good = ir::canonicalHash(p);
  EXPECT_TRUE(cache.selfCheck(m, p, &detail, &good)) << detail;

  const std::uint64_t stale = good ^ 1;
  EXPECT_FALSE(cache.selfCheck(m, p, &detail, &stale));
  EXPECT_NE(detail.find("stale"), std::string::npos) << detail;
}

TEST(ParallelEvaluator, ForEachCoversAllIndices) {
  ParallelEvaluator pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> touched(257);
  pool.forEach(touched.size(), [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelEvaluator, PropagatesWorkerExceptions) {
  ParallelEvaluator pool(4);
  EXPECT_THROW(pool.forEach(64,
                            [&](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> n{0};
  pool.forEach(8, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

TEST(EvalCache, ConcurrentInsertStress) {
  // Many workers hammer a small key set concurrently: every result must be
  // the model's cost, and the table must end up with exactly one entry per
  // unique program. TSan-clean by construction (mutex around the map).
  const auto& m = machines::xeon();
  std::vector<ir::Program> programs;
  for (int n = 2; n <= 9; ++n) programs.push_back(kernels::makeAdd(n, n));
  std::vector<double> expected;
  for (const auto& p : programs) expected.push_back(m.evaluate(p));

  EvalCache cache;
  ParallelEvaluator pool(8);
  constexpr std::size_t kIters = 512;
  std::vector<double> got(kIters);
  pool.forEach(kIters, [&](std::size_t i) {
    got[i] = cache.evaluate(m, programs[i % programs.size()]);
  });
  for (std::size_t i = 0; i < kIters; ++i)
    EXPECT_EQ(got[i], expected[i % programs.size()]);
  EXPECT_EQ(cache.size(), programs.size());
  auto s = cache.stats();
  EXPECT_EQ(s.requests, static_cast<std::int64_t>(kIters));
  // Racy double-misses are permitted (evaluation happens outside the lock),
  // but they must stay rare relative to the request volume.
  EXPECT_EQ(s.hits + s.misses, s.requests);
  EXPECT_GE(s.hits, static_cast<std::int64_t>(kIters - 4 * programs.size()));
}

SearchConfig baseConfig(SearchMethod method, SpaceStructure structure,
                        int budget, int threads, bool use_cache) {
  SearchConfig cfg;
  cfg.method = method;
  cfg.structure = structure;
  cfg.budget = budget;
  cfg.seed = 7;
  cfg.threads = threads;
  cfg.use_cache = use_cache;
  return cfg;
}

TEST(EvalCacheSearch, ParallelAndCachedRunsAreDeterministic) {
  // The whole point of the design: neither the `threads` setting nor the
  // memo table may change a single search decision. The serial uncached run
  // is the seed behavior; the threads=4 cached run must match it bit-for-bit.
  const auto kernel = kernels::makeSoftmax(64, 32);
  const auto& m = machines::xeon();
  for (auto method :
       {SearchMethod::RandomSampling, SearchMethod::SimulatedAnnealing}) {
    for (auto structure : {SpaceStructure::Edges, SpaceStructure::Heuristic}) {
      const auto serial = runSearch(
          kernel, m, baseConfig(method, structure, 120, 1, false));
      const auto cached = runSearch(
          kernel, m, baseConfig(method, structure, 120, 1, true));
      const auto parallel = runSearch(
          kernel, m, baseConfig(method, structure, 120, 4, true));
      EXPECT_EQ(serial.best_runtime, cached.best_runtime);
      EXPECT_EQ(serial.best_runtime, parallel.best_runtime);
      EXPECT_EQ(serial.evals, parallel.evals);
      ASSERT_EQ(serial.trace.size(), parallel.trace.size());
      for (std::size_t i = 0; i < serial.trace.size(); ++i) {
        ASSERT_EQ(serial.trace[i], cached.trace[i]) << "at eval " << i;
        ASSERT_EQ(serial.trace[i], parallel.trace[i]) << "at eval " << i;
      }
      EXPECT_EQ(serial.stats.cache_hits, 0);
      EXPECT_EQ(serial.stats.machine_evals, serial.stats.evals_requested);
    }
  }
}

TEST(EvalCacheSearch, DeterminismAcrossThreadsAndCacheOnTwoKernels) {
  // Regression net for the determinism contract: on two different kernels,
  // every combination of {threads=1, threads=8} x {cache off, cache on}
  // must produce a bit-identical search — same best cost, same eval count,
  // same trace, same winning program. Any scheduling- or memoization-
  // dependent decision shows up here as a trace divergence.
  const auto& m = machines::xeon();
  const std::vector<ir::Program> kernels_under_test = {
      kernels::makeSoftmax(48, 24), kernels::makeMatmul(16, 16, 16)};
  for (const auto& kernel : kernels_under_test) {
    const auto reference = runSearch(
        kernel, m,
        baseConfig(SearchMethod::SimulatedAnnealing, SpaceStructure::Edges,
                   160, 1, false));
    for (int threads : {1, 8}) {
      for (bool use_cache : {false, true}) {
        const auto r = runSearch(
            kernel, m,
            baseConfig(SearchMethod::SimulatedAnnealing, SpaceStructure::Edges,
                       160, threads, use_cache));
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " cache=" << use_cache);
        EXPECT_EQ(reference.best_runtime, r.best_runtime);
        EXPECT_EQ(reference.evals, r.evals);
        EXPECT_TRUE(ir::canonicallyEqual(reference.best, r.best));
        ASSERT_EQ(reference.trace.size(), r.trace.size());
        for (std::size_t i = 0; i < reference.trace.size(); ++i)
          ASSERT_EQ(reference.trace[i], r.trace[i]) << "at eval " << i;
      }
    }
  }
}

TEST(EvalCacheSearch, AnnealingCacheCutsMachineEvalsAtLeastTwofold) {
  // Acceptance criterion: with threads=4 + caching, annealing on multiple
  // kernels reports >= 2x fewer raw machine evaluations than evaluations
  // requested, at lower total wall-clock than the serial seed path, while
  // returning the same best cost under the fixed seed. Short walks
  // (max_steps) and brisk cooling keep the annealer revisiting known
  // states, which is exactly the regime the memo layer targets.
  const auto& m = machines::xeon();
  const std::vector<ir::Program> kernels_under_test = {
      kernels::makeDot(1024), kernels::makeAdd(128, 128)};
  // Wall-clock comparison uses best-of-kReps per leg: a single-shot wall
  // measurement under a loaded test runner (ctest -j) includes preemption,
  // which can dwarf the memoized margin and flake the assertion. Each rep
  // is bit-identical in results, so the minimum is the honest cost of the
  // leg.
  constexpr int kReps = 3;
  double cached_wall_ms = 0, serial_wall_ms = 0;
  for (const auto& kernel : kernels_under_test) {
    auto cfg = baseConfig(SearchMethod::SimulatedAnnealing,
                          SpaceStructure::Edges, 1000, 4, true);
    cfg.max_steps = 6;
    cfg.sa_decay = 0.98;
    const auto r = runSearch(kernel, m, cfg);
    EXPECT_EQ(r.stats.evals_requested, 1000);
    EXPECT_GE(r.stats.cache_hits, r.stats.evals_requested / 2);
    // The memo must cut model runs at least twofold, and the exact
    // accounting identity machine_evals + hits == requested must hold to
    // the eval.
    EXPECT_LE(r.stats.machine_evals * 2, r.stats.evals_requested);
    EXPECT_EQ(r.stats.machine_evals + r.stats.cache_hits,
              r.stats.evals_requested);

    auto timed_cfg = cfg;
    auto serial_cfg = timed_cfg;
    serial_cfg.threads = 1;
    serial_cfg.use_cache = false;
    double cached_best = 0, serial_best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto cached = runSearch(kernel, m, timed_cfg);
      const auto serial = runSearch(kernel, m, serial_cfg);
      if (rep == 0) {
        // Neither the memo nor the worker pool may change the search
        // outcome.
        EXPECT_EQ(cached.best_runtime, r.best_runtime);
        EXPECT_EQ(serial.best_runtime, r.best_runtime);
        EXPECT_EQ(serial.stats.machine_evals, 1000);
        cached_best = cached.stats.wall_ms;
        serial_best = serial.stats.wall_ms;
      } else {
        cached_best = std::min(cached_best, cached.stats.wall_ms);
        serial_best = std::min(serial_best, serial.stats.wall_ms);
      }
    }
    cached_wall_ms += cached_best;
    serial_wall_ms += serial_best;
  }
  // Summed over the kernels the memoized margin is ~1.5-2x; comparing the
  // totals absorbs per-run scheduling noise.
  EXPECT_GT(serial_wall_ms, 0.0);
  EXPECT_LT(cached_wall_ms, serial_wall_ms);
}

TEST(EvalCacheSearch, SharedCacheCarriesAcrossRuns) {
  const auto kernel = kernels::makeSoftmax(32, 32);
  const auto& m = machines::xeon();
  EvalCache shared;
  const auto cfg = baseConfig(SearchMethod::SimulatedAnnealing,
                              SpaceStructure::Edges, 150, 1, true);
  const auto first = runSearch(kernel, m, cfg, &shared);
  const auto second = runSearch(kernel, m, cfg, &shared);
  EXPECT_EQ(first.best_runtime, second.best_runtime);
  // Every program the second (identical) run touches is already priced.
  EXPECT_LT(second.stats.machine_evals, first.stats.machine_evals);
  EXPECT_EQ(second.stats.machine_evals, 0);
}

}  // namespace
}  // namespace perfdojo::search
