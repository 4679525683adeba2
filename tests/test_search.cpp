#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/pass.h"
#include "search/search.h"
#include "support/stats.h"
#include "support/telemetry.h"
#include "verify/verifier.h"
#include "reference_search.h"

namespace perfdojo::search {
namespace {

TEST(Passes, NaiveFusesSoftmax) {
  const auto p = kernels::makeSoftmax(64, 64);
  auto h = naivePass(p, machines::xeon());
  EXPECT_GT(h.size(), 3u);  // several fusions + reuses happened
  EXPECT_LE(machines::xeon().evaluate(h.current()),
            machines::xeon().evaluate(p));
  // mx / l are scalar per row after fusion + reuse.
  const auto* mx = h.current().findBuffer("mx");
  ASSERT_NE(mx, nullptr);
  EXPECT_FALSE(mx->materialized[0]);
}

TEST(Passes, PassesPreserveSemantics) {
  for (const char* label : {"softmax", "reducemean", "matmul"}) {
    const auto* k = kernels::findKernel(label);
    const auto p = k->build_small();
    for (auto* m : {&machines::xeon(), &machines::snitch(), &machines::gh200()}) {
      for (auto pass : {&naivePass, &greedyPass, &heuristicPass}) {
        auto h = (*pass)(p, *m);
        verify::VerifyOptions vo;
        vo.rel_tol = 1e-4;
        const auto r = verify::verifyEquivalent(p, h.current(), vo);
        EXPECT_TRUE(r.equivalent)
            << label << " on " << m->name() << ": " << r.detail;
      }
    }
  }
}

TEST(Passes, SnitchGeomeanOrdering) {
  // Figure 7: greedy ~ +46% over naive, heuristic ~ +58% over naive
  // (geometric means). Assert the ordering and a sizable gap.
  std::vector<double> g_over_n, h_over_n;
  for (const auto& k : kernels::snitchMicro()) {
    const auto p = k.build();
    const double tn = machines::snitch().evaluate(naivePass(p, machines::snitch()).current());
    const double tg = machines::snitch().evaluate(greedyPass(p, machines::snitch()).current());
    const double th = machines::snitch().evaluate(heuristicPass(p, machines::snitch()).current());
    g_over_n.push_back(tn / tg);
    h_over_n.push_back(tn / th);
  }
  const double g = geomean(g_over_n);
  const double h = geomean(h_over_n);
  EXPECT_GT(g, 1.2);
  EXPECT_GT(h, g);
}

TEST(Search, ImprovesOverInitialProgram) {
  const auto p = kernels::makeSoftmax(256, 256);
  SearchConfig cfg;
  cfg.budget = 150;
  cfg.seed = 3;
  for (auto method : {SearchMethod::RandomSampling, SearchMethod::SimulatedAnnealing}) {
    for (auto structure : {SpaceStructure::Edges, SpaceStructure::Heuristic}) {
      cfg.method = method;
      cfg.structure = structure;
      const auto r = runSearch(p, machines::xeon(), cfg);
      EXPECT_LT(r.best_runtime, machines::xeon().evaluate(p))
          << searchMethodName(method) << "/" << spaceStructureName(structure);
      EXPECT_EQ(r.trace.size(), static_cast<std::size_t>(r.evals));
    }
  }
}

TEST(Search, TraceIsMonotoneNonIncreasing) {
  SearchConfig cfg;
  cfg.budget = 100;
  const auto r = runSearch(kernels::makeReduceMean(128, 256), machines::xeon(), cfg);
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_LE(r.trace[i], r.trace[i - 1]);
}

TEST(Search, HeuristicStructureConvergesFasterThanEdges) {
  // The decisive factor of Figure 12. Compare best-found after a small
  // budget; the heuristic structure should not be worse.
  const auto p = kernels::makeSoftmax(512, 128);
  SearchConfig cfg;
  cfg.budget = 120;
  cfg.method = SearchMethod::SimulatedAnnealing;
  std::vector<double> edges_best, heur_best;
  for (std::uint64_t seed : {9u, 10u, 11u}) {
    cfg.seed = seed;
    cfg.structure = SpaceStructure::Edges;
    edges_best.push_back(runSearch(p, machines::xeon(), cfg).best_runtime);
    cfg.structure = SpaceStructure::Heuristic;
    heur_best.push_back(runSearch(p, machines::xeon(), cfg).best_runtime);
  }
  EXPECT_LE(geomean(heur_best), geomean(edges_best) * 1.1);
}

TEST(Search, BestProgramIsSemanticallyValid) {
  const auto p = kernels::makeSoftmax(8, 16);
  SearchConfig cfg;
  cfg.budget = 80;
  const auto r = runSearch(p, machines::xeon(), cfg);
  verify::VerifyOptions vo;
  vo.rel_tol = 1e-4;
  const auto v = verify::verifyEquivalent(p, r.best, vo);
  EXPECT_TRUE(v.equivalent) << v.detail;
}

TEST(Annealing, AcceptsDownhillWithoutConsumingRandomness) {
  // delta <= 0 must be accepted unconditionally and must not draw from the
  // generator — the acceptance draw happens only for cost-increasing moves,
  // so downhill moves keep the decision stream aligned with the seed path.
  Rng a(42), b(42);
  EXPECT_TRUE(saAccept(-0.25, 0.6, a));
  EXPECT_TRUE(saAccept(0.0, 0.6, a));
  EXPECT_EQ(a.uniformReal(), b.uniformReal());
}

TEST(Annealing, CostIncreasingMoveAcceptedHotRejectedCold) {
  // Regression for the SA schedule: the same uphill move (fixed seed, fixed
  // delta) is accepted at the initial temperature and rejected once the
  // geometric decay has run the temperature down.
  const double t0 = 0.6, decay = 0.995, delta = 0.05;
  const double hot = saTemperature(t0, decay, 0);
  EXPECT_EQ(hot, t0);
  // exp(-0.05/0.6) ~ 0.92: accepted for almost every draw; seed 7 is one.
  Rng early(7);
  EXPECT_TRUE(saAccept(delta, hot, early));
  // After 2000 evaluations temp ~ 2.6e-5: exp(-delta/temp) underflows to 0,
  // so the move is rejected for every possible draw.
  const double cold = saTemperature(t0, decay, 2000);
  EXPECT_LT(cold, 1e-4);
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng late(seed);
    EXPECT_FALSE(saAccept(delta, cold, late)) << "seed " << seed;
  }
}

TEST(Annealing, TemperatureScheduleIsGeometric) {
  EXPECT_DOUBLE_EQ(saTemperature(0.6, 0.995, 1), 0.6 * 0.995);
  EXPECT_DOUBLE_EQ(saTemperature(0.6, 0.995, 10),
                   0.6 * std::pow(0.995, 10.0));
  EXPECT_GT(saTemperature(0.6, 0.995, 500), saTemperature(0.6, 0.995, 501));
}

/// y[0] = relu(x[0]) with no loop: no transformation applies anywhere.
ir::Program scalarRelu() {
  ir::Builder b("scalar_relu");
  b.buffer("x", ir::DType::F64, {1}).buffer("y", ir::DType::F64, {1});
  b.input("x").output("y");
  b.op(ir::OpCode::Relu, b.at("y", {ir::IndexExpr::constant(0)}),
       {ir::Builder::arr(b.at("x", {ir::IndexExpr::constant(0)}))});
  return b.finish();
}

TEST(Search, TerminatesOnActionStarvedPrograms) {
  // Kernels where few or no transformations apply must not hang any method,
  // and each stop rule is pinned: on the edges structure a dead-end kernel
  // ends the search after pricing the kernel alone; otherwise a loop stops
  // after 1024 proposals in a row that yield no candidate — the heuristic
  // loops after pricing the kernel and the expert pass's sequence, random
  // sampling on the edges structure once its pool fills with dead ends.
  struct Pin {
    const char* kernel;
    SearchMethod method;
    SpaceStructure structure;
    TerminationReason reason;
    int evals;
  };
  constexpr auto kRS = SearchMethod::RandomSampling;
  constexpr auto kSA = SearchMethod::SimulatedAnnealing;
  constexpr auto kEdges = SpaceStructure::Edges;
  constexpr auto kHeur = SpaceStructure::Heuristic;
  constexpr auto kBudget = TerminationReason::BudgetExhausted;
  constexpr auto kStall = TerminationReason::Stall;
  const Pin pins[] = {
      {"add_1x1", kRS, kEdges, kBudget, 400},
      {"add_1x1", kRS, kHeur, kBudget, 400},
      {"add_1x1", kSA, kEdges, kBudget, 400},
      {"add_1x1", kSA, kHeur, kBudget, 400},
      {"vec_relu_1", kRS, kEdges, kStall, 228},
      {"vec_relu_1", kRS, kHeur, kBudget, 400},
      {"vec_relu_1", kSA, kEdges, kBudget, 400},
      {"vec_relu_1", kSA, kHeur, kBudget, 400},
      {"scalar_relu", kRS, kEdges, kStall, 1},
      {"scalar_relu", kRS, kHeur, kStall, 2},
      {"scalar_relu", kSA, kEdges, kStall, 1},
      {"scalar_relu", kSA, kHeur, kStall, 2},
  };
  for (const Pin& pin : pins) {
    const std::string name = pin.kernel;
    const ir::Program p = name == "add_1x1"      ? kernels::makeAdd(1, 1)
                          : name == "vec_relu_1" ? kernels::makeVecRelu(1)
                                                 : scalarRelu();
    SearchConfig cfg;
    cfg.method = pin.method;
    cfg.structure = pin.structure;
    cfg.budget = 400;
    const auto r = runSearch(p, machines::xeon(), cfg);
    SCOPED_TRACE(::testing::Message()
                 << name << " " << searchMethodName(pin.method) << "/"
                 << spaceStructureName(pin.structure));
    EXPECT_EQ(r.reason, pin.reason) << terminationReasonName(r.reason);
    EXPECT_EQ(r.evals, pin.evals);
  }
}

TEST(Search, ZeroMaxStepsStillSpendsTheBudget) {
  // max_steps = 0 must not trap the edges annealer restarting at the kernel
  // without pricing anything: a walk restarts only after an accepted move,
  // so every method spends its budget.
  SearchConfig cfg;
  cfg.budget = 60;
  cfg.max_steps = 0;
  for (auto method : {SearchMethod::RandomSampling, SearchMethod::SimulatedAnnealing}) {
    for (auto structure : {SpaceStructure::Edges, SpaceStructure::Heuristic}) {
      cfg.method = method;
      cfg.structure = structure;
      const auto r = runSearch(kernels::makeSoftmax(48, 24), machines::xeon(), cfg);
      EXPECT_EQ(r.evals, cfg.budget)
          << searchMethodName(method) << "/" << spaceStructureName(structure);
    }
  }
}

TEST(Search, ExpertSuggestionIsApplicable) {
  const auto p = kernels::makeDot(64);
  Rng rng(4);
  transform::Action a;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(suggestExpertAction(p, machines::snitch().caps(), rng, a));
    EXPECT_NO_THROW(a.apply(p));
  }
}

// --- Non-finite cost hardening (regression: exp(-NaN) in saAccept) ---

TEST(SaAccept, RejectsNonFiniteDeltaWithoutRngDraw) {
  Rng a(42), b(42);
  EXPECT_FALSE(saAccept(std::numeric_limits<double>::quiet_NaN(), 0.5, a));
  EXPECT_FALSE(saAccept(std::numeric_limits<double>::infinity(), 0.5, a));
  EXPECT_FALSE(saAccept(-std::numeric_limits<double>::quiet_NaN(), 0.5, a));
  EXPECT_TRUE(saAccept(-1.0, 0.5, a));  // improvement: accepted, no draw
  EXPECT_TRUE(saAccept(0.0, 0.5, a));
  // None of the above consumed a uniform draw, so the streams still agree.
  EXPECT_EQ(a.next(), b.next());
  // A finite positive delta consumes exactly one draw.
  (void)saAccept(0.1, 0.5, a);
  (void)b.uniformReal();
  EXPECT_EQ(a.next(), b.next());
}

TEST(SaAccept, AcceptsSmallRegressionAtHighTempRejectsAtLowTemp) {
  int hot = 0, cold = 0;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    if (saAccept(0.05, 1.0, rng)) ++hot;
    if (saAccept(0.05, 1e-6, rng)) ++cold;
  }
  EXPECT_GT(hot, 300);  // exp(-0.05) ~ 0.95
  EXPECT_EQ(cold, 0);
}

/// A machine whose cost model is broken: every program prices to the same
/// non-finite value. The search must terminate, never promote such a
/// candidate to best, and count every rejection.
class BrokenMachine final : public machines::Machine {
 public:
  explicit BrokenMachine(double value) : value_(value) {
    caps_ = machines::xeon().caps();
  }
  const std::string& name() const override {
    static const std::string n = "broken";
    return n;
  }
  const transform::MachineCaps& caps() const override { return caps_; }
  double evaluate(const ir::Program&) const override { return value_; }
  machines::CostBreakdown evaluateDetailed(const ir::Program&) const override {
    return {};
  }
  double peakTime(const ir::Program&) const override { return 1.0; }

 private:
  double value_;
  transform::MachineCaps caps_;
};

TEST(Search, NonFiniteCostsCannotPoisonAnyMethod) {
  const auto kernel = kernels::makeSoftmax(8, 32);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const BrokenMachine m(bad);
    for (const auto method :
         {SearchMethod::RandomSampling, SearchMethod::SimulatedAnnealing}) {
      for (const auto structure :
           {SpaceStructure::Edges, SpaceStructure::Heuristic}) {
        SearchConfig sc;
        sc.method = method;
        sc.structure = structure;
        sc.budget = 40;
        sc.max_steps = 8;
        sc.seed = 3;
        sc.threads = 1;
        const auto r = runSearch(kernel, m, sc);
        // Nothing admissible was ever seen, so best stays the input program
        // and best_runtime stays the sentinel — but the search terminated.
        EXPECT_GT(r.stats.nonfinite_rejected, 0)
            << searchMethodName(method) << "/" << spaceStructureName(structure);
        EXPECT_FALSE(std::isnan(r.best_runtime));
        for (const double v : r.trace) EXPECT_FALSE(std::isnan(v));
      }
    }
  }
}

TEST(Search, FiniteMachineReportsNoNonFiniteRejections) {
  SearchConfig sc;
  sc.budget = 60;
  sc.seed = 2;
  sc.threads = 1;
  const auto r = runSearch(kernels::makeSoftmax(8, 32), machines::xeon(), sc);
  EXPECT_EQ(r.stats.nonfinite_rejected, 0);
  EXPECT_TRUE(std::isfinite(r.best_runtime));
}

/// Xeon's cost model, recording the thread that runs every evaluation.
class ThreadRecordingMachine final : public machines::Machine {
 public:
  const std::string& name() const override { return xeon().name(); }
  const transform::MachineCaps& caps() const override { return xeon().caps(); }
  double evaluate(const ir::Program& p) const override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      threads_.push_back(std::this_thread::get_id());
    }
    return xeon().evaluate(p);
  }
  machines::CostBreakdown evaluateDetailed(
      const ir::Program& p) const override {
    return xeon().evaluateDetailed(p);
  }
  double peakTime(const ir::Program& p) const override {
    return xeon().peakTime(p);
  }

  std::vector<std::thread::id> takeThreads() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(threads_, {});
  }

 private:
  static const machines::Machine& xeon() { return machines::xeon(); }
  mutable std::mutex mu_;
  mutable std::vector<std::thread::id> threads_;
};

TEST(Search, PricesOnTheCallingThread) {
  // Every method x structure prices its candidates on the thread that calls
  // runSearch, whatever `threads` says: both draw each step from the prices
  // of the steps before it, so there is no batch to hand to a worker.
  const auto kernel = kernels::makeSoftmax(48, 24);
  ThreadRecordingMachine m;
  for (const auto method :
       {SearchMethod::RandomSampling, SearchMethod::SimulatedAnnealing}) {
    for (const auto structure :
         {SpaceStructure::Edges, SpaceStructure::Heuristic}) {
      SCOPED_TRACE(::testing::Message() << searchMethodName(method) << "/"
                                        << spaceStructureName(structure));
      SearchConfig sc;
      sc.method = method;
      sc.structure = structure;
      sc.budget = 150;
      sc.seed = 3;
      sc.threads = 8;
      const auto r = runSearch(kernel, m, sc);
      const auto threads = m.takeThreads();
      EXPECT_EQ(static_cast<std::int64_t>(threads.size()),
                r.stats.machine_evals);
      ASSERT_FALSE(threads.empty());
      for (const auto id : threads)
        ASSERT_EQ(id, std::this_thread::get_id());
    }
  }
}

/// Drops every "wall_ms" field from a JSONL trace: the only member whose
/// value legitimately varies between bit-identical runs.
std::string stripWallClock(std::string jsonl) {
  const std::string key = ",\"wall_ms\":";
  for (std::size_t at; (at = jsonl.find(key)) != std::string::npos;) {
    std::size_t end = at + key.size();
    while (end < jsonl.size() && jsonl[end] != ',' && jsonl[end] != '}') ++end;
    jsonl.erase(at, end - at);
  }
  return jsonl;
}

TEST(Search, DeltaAndThreadsPreserveTraceBitIdentity) {
  // Regression net for the delta pricing path: on two kernels, runs at
  // threads=1 and threads=8 must make exactly the decisions of the reference
  // loop, which prices every neighbor as canonicalHash(a.apply(p)) and
  // Machine::evaluate on that copy — same best cost and winning program, same
  // convergence trace, the same sa_step stream (visit order, per-step
  // runtimes, acceptance decisions, memo hits) and the same memo counters.
  // Any divergence means the incremental hash disagreed with the full render
  // somewhere in the walk.
  const auto& m = machines::xeon();
  const std::vector<ir::Program> kernels_under_test = {
      kernels::makeSoftmax(48, 24), kernels::makeMatmul(16, 16, 16)};
  for (const auto& kernel : kernels_under_test) {
    SearchConfig base;
    base.method = SearchMethod::SimulatedAnnealing;
    base.structure = SpaceStructure::Edges;
    base.budget = 160;
    base.max_steps = 10;
    base.seed = 7;
    base.use_cache = true;

    Telemetry ref_sink;
    const auto ref = reference::annealingEdges(kernel, m, base, ref_sink);
    const std::string ref_steps = ref_sink.buffered();
    ASSERT_FALSE(ref_steps.empty());

    for (int threads : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      Telemetry sink;
      SearchConfig cfg = base;
      cfg.threads = threads;
      cfg.telemetry = &sink;
      const auto r = runSearch(kernel, m, cfg);
      EXPECT_EQ(ref.best_runtime, r.best_runtime);
      EXPECT_EQ(static_cast<int>(ref.trace.size()), r.evals);
      EXPECT_TRUE(ir::canonicallyEqual(ref.best, r.best));
      ASSERT_EQ(ref.trace.size(), r.trace.size());
      for (std::size_t i = 0; i < ref.trace.size(); ++i)
        ASSERT_EQ(ref.trace[i], r.trace[i]) << "at eval " << i;
      EXPECT_EQ(reference::eventLines(sink.buffered(), "sa_step"), ref_steps);
      EXPECT_EQ(r.stats.unique_programs, ref.unique_programs);
      EXPECT_EQ(r.stats.machine_evals, ref.unique_programs);
      EXPECT_EQ(r.stats.cache_hits + r.stats.machine_evals,
                r.stats.evals_requested);
    }
  }
}

TEST(Search, EdgesTracesPinned) {
  // The edges structure under both methods, pinned per (kernel, machine) at
  // threads 1 and 8 to fingerprints of the single-pricing-path behaviour:
  // best cost, the evaluation counters and an fnv1a hash of the telemetry
  // stream without wall-clock (every candidate, runtime, memo hit and
  // acceptance decision). A change to how neighbors are priced, accepted or
  // enumerated must keep all of them.
  struct Pin {
    const char* kernel;
    const char* machine;
    SearchMethod method;
    double best_runtime;
    int evals;
    std::int64_t cache_hits;
    std::int64_t machine_evals;
    std::int64_t unique_programs;
    std::uint64_t trace_hash;
  };
  constexpr auto kSA = SearchMethod::SimulatedAnnealing;
  constexpr auto kRS = SearchMethod::RandomSampling;
  const Pin pins[] = {
      {"softmax", "snitch", kSA, 0x1.ddd0ab28b83p-22, 300, 7, 293, 293, 0xe1f485daac0c17eeull},
      {"softmax", "snitch", kRS, 0x1.3a11c9ac0602dp-21, 300, 10, 290, 290, 0xbf35f4fbe0feb88dull},
      {"softmax", "xeon", kSA, 0x1.5381c6baff845p-23, 300, 4, 296, 296, 0x34ba9067e36543a5ull},
      {"softmax", "xeon", kRS, 0x1.87a8fd29756b2p-23, 300, 3, 297, 297, 0xc806aa73253284e0ull},
      {"softmax", "gh200", kSA, 0x1.e9485d58ccfep-25, 300, 10, 290, 290, 0xbd6bad4db01a4de1ull},
      {"softmax", "gh200", kRS, 0x1.f1df634ce0694p-25, 300, 11, 289, 289, 0x38bfec939cdee371ull},
      {"matmul", "snitch", kSA, 0x1.9c511dc3a41dfp-21, 300, 46, 254, 254, 0x51fe1185183a80a6ull},
      {"matmul", "snitch", kRS, 0x1.9c511dc3a41dfp-21, 300, 64, 236, 236, 0x8d5e6709556e8ac8ull},
      {"matmul", "xeon", kSA, 0x1.bbd03397eb52p-23, 300, 45, 255, 255, 0xcc7646c73ce59e49ull},
      {"matmul", "xeon", kRS, 0x1.9f2e1fbfaa97p-23, 300, 42, 258, 258, 0xed3487b4651df691ull},
      {"matmul", "gh200", kSA, 0x1.630cf61322a8p-24, 300, 33, 267, 267, 0x239ad981eca8d1afull},
      {"matmul", "gh200", kRS, 0x1.630cf61322a8p-24, 300, 43, 257, 257, 0x5d527109115ebf18ull},
      {"layernorm_1", "snitch", kSA, 0x1.523a8a6a7ca09p-21, 300, 5, 295, 295, 0x82a696e4085c257cull},
      {"layernorm_1", "snitch", kRS, 0x1.1a64e3b7fe673p-21, 300, 7, 293, 293, 0x9254e0923340d7b4ull},
      {"layernorm_1", "xeon", kSA, 0x1.b0908739d1e4p-23, 300, 1, 299, 299, 0xdfbf8346d9e22bbeull},
      {"layernorm_1", "xeon", kRS, 0x1.8ed1821f8599ep-23, 300, 3, 297, 297, 0xde3b5f293e0e0a6bull},
      {"layernorm_1", "gh200", kSA, 0x1.0b8c3e8c9a47dp-24, 300, 7, 293, 293, 0x1201918bab9f9dfbull},
      {"layernorm_1", "gh200", kRS, 0x1.139f538164dacp-24, 300, 4, 296, 296, 0x03fb5c627ccdb0caull},
  };
  for (const Pin& pin : pins) {
    const auto* k = kernels::findKernel(pin.kernel);
    const auto* m = machines::findMachine(pin.machine);
    ASSERT_NE(k, nullptr);
    ASSERT_NE(m, nullptr);
    for (int threads : {1, 8}) {
      Telemetry sink;
      SearchConfig cfg;
      cfg.method = pin.method;
      cfg.structure = SpaceStructure::Edges;
      cfg.budget = 300;
      cfg.max_steps = 12;
      cfg.seed = 5;
      cfg.threads = threads;
      cfg.telemetry = &sink;
      const auto r = runSearch(k->build_small(), *m, cfg);
      const std::uint64_t trace_hash = fnv1a(stripWallClock(sink.buffered()));
      // The observed fingerprint, printed in the table's own syntax.
      char row[256];
      std::snprintf(
          row, sizeof row,
          "{\"%s\", \"%s\", %s, %a, %d, %lld, %lld, %lld, 0x%016llxull},",
          pin.kernel, pin.machine, pin.method == kSA ? "kSA" : "kRS",
          r.best_runtime, r.evals, static_cast<long long>(r.stats.cache_hits),
          static_cast<long long>(r.stats.machine_evals),
          static_cast<long long>(r.stats.unique_programs),
          static_cast<unsigned long long>(trace_hash));
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " " << row);
      EXPECT_EQ(r.best_runtime, pin.best_runtime);
      EXPECT_EQ(r.evals, pin.evals);
      EXPECT_EQ(r.stats.cache_hits, pin.cache_hits);
      EXPECT_EQ(r.stats.machine_evals, pin.machine_evals);
      EXPECT_EQ(r.stats.unique_programs, pin.unique_programs);
      EXPECT_EQ(trace_hash, pin.trace_hash);
    }
  }
}

TEST(Search, HeuristicTracesPinned) {
  // The heuristic structure (the SearchConfig default) under both methods,
  // pinned to fingerprints recorded from the implementation that replayed
  // every candidate sequence from the kernel: best cost, the evaluation
  // counters and an fnv1a hash of the telemetry stream without wall-clock
  // (every proposal, runtime and acceptance decision). The hashes are of
  // that recording with the always-zero primed_evals removed from
  // search_end. A change to how
  // candidate sequences are replayed must keep all of them.
  struct Pin {
    const char* kernel;
    const char* machine;
    SearchMethod method;
    double best_runtime;
    int evals;
    std::int64_t cache_hits;
    std::int64_t machine_evals;
    std::uint64_t trace_hash;
  };
  constexpr auto kSA = SearchMethod::SimulatedAnnealing;
  constexpr auto kRS = SearchMethod::RandomSampling;
  const Pin pins[] = {
      {"softmax", "snitch", kSA, 0x1.cfdb417c18a1bp-22, 150, 18, 132, 0xfca6799cf6627c76ull},
      {"softmax", "snitch", kRS, 0x1.cfdb417c18a1bp-22, 150, 25, 125, 0xbd52e0a86b37876bull},
      {"softmax", "xeon", kSA, 0x1.37e57cbcc1193p-23, 150, 13, 137, 0xd56936642f5463f9ull},
      {"softmax", "xeon", kRS, 0x1.a3454727b3d65p-23, 150, 30, 120, 0xd6b3d046e12f19b1ull},
      {"softmax", "gh200", kSA, 0x1.e9485d58ccfep-25, 150, 10, 140, 0x58236951e2fd3782ull},
      {"softmax", "gh200", kRS, 0x1.fa766940f3d49p-25, 150, 42, 108, 0xbfe4bba9595d75efull},
      {"matmul", "snitch", kSA, 0x1.9c511dc3a41dfp-23, 150, 128, 22, 0xa4f050ac9d64a8e2ull},
      {"matmul", "snitch", kRS, 0x1.9c511dc3a41dfp-23, 150, 108, 42, 0xc6177b74356bc253ull},
      {"matmul", "xeon", kSA, 0x1.bddbc74beff1ap-23, 150, 80, 70, 0xc0200bae725385c6ull},
      {"matmul", "xeon", kRS, 0x1.bbd03397eb52p-23, 150, 90, 60, 0xd5b64ea5645d1d3bull},
      {"matmul", "gh200", kSA, 0x1.630cf61322a8p-24, 150, 71, 79, 0x728ba031efc92f71ull},
      {"matmul", "gh200", kRS, 0x1.630cf61322a8p-24, 150, 93, 57, 0x960d84ef27ae3bc7ull},
      {"layernorm_1", "snitch", kSA, 0x1.f237594c664eep-22, 150, 10, 140, 0x58c7e596276cf891ull},
      {"layernorm_1", "snitch", kRS, 0x1.f237594c664eep-22, 150, 24, 126, 0x4e97eb96e820c40bull},
      {"layernorm_1", "xeon", kSA, 0x1.6a011f7732606p-23, 150, 9, 141, 0x9b5f00951d7085a1ull},
      {"layernorm_1", "xeon", kRS, 0x1.a3454727b3d65p-23, 150, 29, 121, 0x11dabf8036074219ull},
      {"layernorm_1", "gh200", kSA, 0x1.1842cc7af475fp-24, 150, 7, 143, 0x8bd1608228df7e9cull},
      {"layernorm_1", "gh200", kRS, 0x1.15af177e883c3p-24, 150, 32, 118, 0x0c946bf145f95389ull},
  };
  for (const Pin& pin : pins) {
    const auto* k = kernels::findKernel(pin.kernel);
    const auto* m = machines::findMachine(pin.machine);
    ASSERT_NE(k, nullptr);
    ASSERT_NE(m, nullptr);
    Telemetry sink;
    SearchConfig cfg;
    cfg.method = pin.method;
    cfg.structure = SpaceStructure::Heuristic;
    cfg.budget = 150;
    cfg.seed = 5;
    cfg.threads = 1;
    cfg.telemetry = &sink;
    const auto r = runSearch(k->build_small(), *m, cfg);
    const std::uint64_t trace_hash = fnv1a(stripWallClock(sink.buffered()));
    // The observed fingerprint, printed in the table's own syntax.
    char row[256];
    std::snprintf(row, sizeof row,
                  "{\"%s\", \"%s\", %s, %a, %d, %lld, %lld, 0x%016llxull},",
                  pin.kernel, pin.machine, pin.method == kSA ? "kSA" : "kRS",
                  r.best_runtime, r.evals,
                  static_cast<long long>(r.stats.cache_hits),
                  static_cast<long long>(r.stats.machine_evals),
                  static_cast<unsigned long long>(trace_hash));
    SCOPED_TRACE(row);
    EXPECT_EQ(r.best_runtime, pin.best_runtime);
    EXPECT_EQ(r.evals, pin.evals);
    EXPECT_EQ(r.stats.cache_hits, pin.cache_hits);
    EXPECT_EQ(r.stats.machine_evals, pin.machine_evals);
    EXPECT_EQ(trace_hash, pin.trace_hash);
  }
}

}  // namespace
}  // namespace perfdojo::search
