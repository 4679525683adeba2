// Exact search tier: checked-in optimality certificates reproduce
// bit-identically, the stochastic tiers land within their recorded ratio of
// the proven optimum (the Fig. 7 quality gate), Machine::lowerBound is
// admissible along random trajectories, pruning and dedup never change the
// optimum, and certificates are bit-identical across thread counts and match
// a reference enumeration that hashes children by full render. The model is
// handed exactly the admitted children, each a valid program, and a model
// that throws on a worker fails the run without poisoning the next one.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/exact.h"
#include "search/pass.h"
#include "search/search.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "transform/history.h"
#include "transform/transform.h"
#include "reference_search.h"

namespace perfdojo::search {
namespace {

#ifndef PD_EXACT_BASELINE_DIR
#error "tests/CMakeLists.txt must define PD_EXACT_BASELINE_DIR"
#endif

std::vector<std::string> baselineFiles() {
  std::vector<std::string> files;
  for (const auto& e :
       std::filesystem::directory_iterator(PD_EXACT_BASELINE_DIR))
    if (e.path().extension() == ".json") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

/// The baselines were generated by `perfdojo certs --update` on the *small*
/// kernel variants; recomputation must use the identical configuration.
ExactResult recompute(const ExactCertificate& want, int threads = 0,
                      Telemetry* sink = nullptr) {
  const auto* k = kernels::findKernel(want.kernel);
  const auto* m = machines::findMachine(want.machine);
  EXPECT_NE(k, nullptr) << want.kernel;
  EXPECT_NE(m, nullptr) << want.machine;
  ExactConfig cfg;
  cfg.depth = want.depth;
  cfg.threads = threads;
  cfg.kernel_label = want.kernel;
  cfg.telemetry = sink;
  return runExact(k->build_small(), *m, cfg);
}

TEST(Exact, BaselinesCoverThreeKernelsTimesThreeMachines) {
  // The ISSUE acceptance floor: >=3 Table-3 kernels x 3 machines, depth >=3,
  // all space-exhausted (complete) certificates.
  const auto files = baselineFiles();
  ASSERT_GE(files.size(), 9u);
  std::vector<std::string> kernels_seen, machines_seen;
  for (const auto& f : files) {
    ExactCertificate c;
    std::string err;
    ASSERT_TRUE(parseCertificate(readTextFile(f), c, &err)) << f << ": " << err;
    EXPECT_TRUE(c.complete) << f;
    EXPECT_GE(c.depth, 3) << f;
    EXPECT_GT(c.sa_gate, 0) << f;
    EXPECT_GT(c.heuristic_gate, 0) << f;
    kernels_seen.push_back(c.kernel);
    machines_seen.push_back(c.machine);
  }
  auto uniq = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v.size();
  };
  EXPECT_GE(uniq(kernels_seen), 3u);
  EXPECT_GE(uniq(machines_seen), 3u);
}

TEST(Exact, CertificatesReproduceBitIdentically) {
  for (const auto& f : baselineFiles()) {
    SCOPED_TRACE(f);
    ExactCertificate want;
    std::string err;
    ASSERT_TRUE(parseCertificate(readTextFile(f), want, &err)) << err;
    auto r = recompute(want);
    EXPECT_EQ(r.reason, TerminationReason::SpaceExhausted);
    EXPECT_TRUE(r.cert.complete);
    // Everything except the recorded quality gates (measurements of *other*
    // tiers) must reproduce exactly: state counts, costs, witness.
    r.cert.sa_gate = want.sa_gate;
    r.cert.heuristic_gate = want.heuristic_gate;
    EXPECT_EQ(r.cert.toJson(), want.toJson());
    // The witness is a real proof object: replaying it prices at the
    // certified optimum on the certified machine.
    const auto* k = kernels::findKernel(want.kernel);
    const auto* m = machines::findMachine(want.machine);
    ASSERT_NE(k, nullptr);
    ASSERT_NE(m, nullptr);
    transform::History::ReplayResult rr;
    const auto witness_prog =
        transform::History::replay(k->build_small(), want.witness, rr);
    ASSERT_TRUE(witness_prog.has_value()) << rr.message;
    EXPECT_EQ(m->evaluate(*witness_prog), want.optimal_cost);
    EXPECT_LE(want.optimal_cost, want.base_cost);
  }
}

TEST(Exact, SaAndHeuristicTiersLandWithinRecordedGateOfOptimal) {
  // The Fig. 7 quality gate: on every certified kernel/machine, the SA tier
  // (canonical gate configuration) and the heuristic pass must cost at most
  // gate * proven-optimum. The gates were recorded with 25% slack, so a trip
  // is a real quality regression, not noise.
  for (const auto& f : baselineFiles()) {
    SCOPED_TRACE(f);
    ExactCertificate cert;
    std::string err;
    ASSERT_TRUE(parseCertificate(readTextFile(f), cert, &err)) << err;
    const auto* k = kernels::findKernel(cert.kernel);
    const auto* m = machines::findMachine(cert.machine);
    ASSERT_NE(k, nullptr);
    ASSERT_NE(m, nullptr);
    const ir::Program base = k->build_small();
    const auto sa = runSearch(base, *m, exactGateSearchConfig());
    EXPECT_LE(sa.best_runtime, cert.sa_gate * cert.optimal_cost)
        << "SA regressed vs proven optimum " << cert.optimal_cost;
    const double heur = m->evaluate(heuristicPass(base, *m).current());
    EXPECT_LE(heur, cert.heuristic_gate * cert.optimal_cost)
        << "heuristic pass regressed vs proven optimum " << cert.optimal_cost;
  }
}

// --- Soundness properties -------------------------------------------------

std::vector<const machines::Machine*> allMachines() {
  return {&machines::snitch(), &machines::xeon(), &machines::gh200(),
          &machines::mi300a()};
}

TEST(Exact, LowerBoundNeverExceedsEvaluateAlongRandomTrajectories) {
  // Admissibility, property (a): at every state of seeded random walks over
  // every Table-3 kernel x machine, lowerBound() <= evaluate(). Each walk
  // visits programs the exact tier would reach only as deep descendants, so
  // this exercises the "valid for every reachable state" half of the
  // contract, not just the root.
  for (const auto& k : kernels::table3()) {
    for (const auto* m : allMachines()) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(k.label + " on " + m->name() + " seed " +
                     std::to_string(seed));
        Rng rng(seed);
        ir::Program p = k.build_small();
        for (int step = 0; step < 8; ++step) {
          const double lb = m->lowerBound(p);
          const double cost = m->evaluate(p);
          ASSERT_TRUE(std::isfinite(lb) && std::isfinite(cost));
          EXPECT_LE(lb, cost * (1 + 1e-12)) << "inadmissible at step " << step;
          const auto actions = transform::allActions(p, m->caps());
          if (actions.empty()) break;
          p = actions[rng.uniform(actions.size())].apply(p);
        }
      }
    }
  }
}

TEST(Exact, PruningVisitsSubsetButPreservesOptimum) {
  // Property (b): disabling the lower-bound pruning visits at least as many
  // states yet returns the bit-identical optimal cost and witness. depth 4 on
  // mul/snitch is a case where pruning demonstrably fires.
  struct Case {
    const char* kernel;
    const machines::Machine* m;
    int depth;
  };
  for (const Case& c : {Case{"mul", &machines::snitch(), 4},
                        Case{"add", &machines::xeon(), 3},
                        Case{"relu", &machines::gh200(), 3}}) {
    SCOPED_TRACE(std::string(c.kernel) + " on " + c.m->name());
    const auto* k = kernels::findKernel(c.kernel);
    ASSERT_NE(k, nullptr);
    ExactConfig cfg;
    cfg.depth = c.depth;
    cfg.kernel_label = c.kernel;
    cfg.prune = true;
    const auto pruned = runExact(k->build_small(), *c.m, cfg);
    cfg.prune = false;
    const auto full = runExact(k->build_small(), *c.m, cfg);
    ASSERT_TRUE(pruned.cert.complete);
    ASSERT_TRUE(full.cert.complete);
    EXPECT_EQ(pruned.cert.optimal_cost, full.cert.optimal_cost);
    EXPECT_LE(pruned.cert.states, full.cert.states);
    EXPECT_LE(pruned.cert.expanded, full.cert.expanded);
    EXPECT_EQ(full.cert.pruned, 0);
    EXPECT_TRUE(ir::canonicallyEqual(pruned.best, full.best));
  }
}

TEST(Exact, BruteForceWithoutDedupFindsNoBetterCost) {
  // Property (c): depth-2 enumeration of the raw action *tree* (no canonical
  // dedup) re-prices every duplicate schedule but cannot find any cost below
  // the deduped frontier's optimum — i.e. hash-dedup merges only states that
  // really are the same schedule.
  for (const char* kernel : {"mul", "relu"}) {
    for (const auto* m : {&machines::snitch(), &machines::xeon()}) {
      SCOPED_TRACE(std::string(kernel) + " on " + m->name());
      const auto* k = kernels::findKernel(kernel);
      ASSERT_NE(k, nullptr);
      ExactConfig cfg;
      cfg.depth = 2;
      cfg.kernel_label = kernel;
      cfg.max_states = 2000000;
      const auto deduped = runExact(k->build_small(), *m, cfg);
      cfg.dedup = false;
      const auto brute = runExact(k->build_small(), *m, cfg);
      ASSERT_TRUE(deduped.cert.complete);
      ASSERT_TRUE(brute.cert.complete);
      EXPECT_EQ(brute.cert.optimal_cost, deduped.cert.optimal_cost);
      EXPECT_GE(brute.cert.states, deduped.cert.states);
    }
  }
}

TEST(Exact, BudgetTripDegradesToBestEffortBound) {
  const auto* k = kernels::findKernel("add");
  ASSERT_NE(k, nullptr);
  ExactConfig cfg;
  cfg.depth = 3;
  cfg.max_states = 10;
  cfg.kernel_label = "add";
  const auto r = runExact(k->build_small(), machines::xeon(), cfg);
  EXPECT_EQ(r.reason, TerminationReason::BudgetExhausted);
  EXPECT_FALSE(r.cert.complete);
  EXPECT_LE(r.cert.states, 10);
  // Still a sound upper bound: the reported best is a real schedule.
  EXPECT_EQ(machines::xeon().evaluate(r.best), r.best_cost);
  EXPECT_LE(r.best_cost, r.cert.base_cost);
}

TEST(Exact, CertificateJsonRoundTrips) {
  for (const auto& f : baselineFiles()) {
    ExactCertificate c;
    std::string err;
    ASSERT_TRUE(parseCertificate(readTextFile(f), c, &err)) << f << ": " << err;
    ExactCertificate again;
    ASSERT_TRUE(parseCertificate(c.toJson(), again, &err)) << err;
    EXPECT_EQ(c.toJson(), again.toJson()) << f;
  }
  ExactCertificate c;
  std::string err;
  EXPECT_FALSE(parseCertificate("{\"type\":\"nope\"}", c, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parseCertificate("not json", c, &err));
}

TEST(Exact, RejectsDegenerateConfig) {
  const auto p = kernels::findKernel("mul")->build_small();
  ExactConfig cfg;
  cfg.depth = 0;
  EXPECT_THROW(runExact(p, machines::snitch(), cfg), Error);
  cfg.depth = 2;
  cfg.max_states = 0;
  EXPECT_THROW(runExact(p, machines::snitch(), cfg), Error);
}

// --- Determinism ----------------------------------------------------------

std::string stripField(std::string jsonl, const std::string& field) {
  const std::string key = ",\"" + field + "\":";
  for (std::size_t at; (at = jsonl.find(key)) != std::string::npos;) {
    std::size_t end = at + key.size();
    while (end < jsonl.size() && jsonl[end] != ',' && jsonl[end] != '}') ++end;
    jsonl.erase(at, end - at);
  }
  return jsonl;
}

TEST(Frontier, CertificateBitIdenticalAcrossThreadsAndDelta) {
  // Mirrors Search.DeltaAndThreadsPreserveTraceBitIdentity: the frontier
  // hashes children through DeltaContext, the reference ball hashes copies by
  // full render. Unpruned, the tier must visit exactly the reference ball;
  // pruned, threads 1 and 8 must produce the identical certificate JSON,
  // state counts and telemetry stream (modulo wall_ms), at the reference
  // optimum. Dedup, budget and pruning decisions all run on the decision
  // thread in a fixed order, so any divergence is a determinism bug, not
  // noise.
  for (const char* kernel : {"mul", "reducemean"}) {
    const auto* k = kernels::findKernel(kernel);
    ASSERT_NE(k, nullptr);
    const auto& m = machines::xeon();
    ExactConfig base_cfg;
    base_cfg.depth = 3;
    base_cfg.kernel_label = kernel;
    const auto ball = reference::exactBall(k->build_small(), m, base_cfg.depth);

    ExactConfig unpruned = base_cfg;
    unpruned.prune = false;
    const auto full = runExact(k->build_small(), m, unpruned);
    EXPECT_EQ(full.cert.states, ball.states) << kernel;
    EXPECT_EQ(full.machine_evals, ball.states) << kernel;
    EXPECT_EQ(full.best_cost, ball.optimum) << kernel;

    Telemetry ref_sink;
    ExactConfig ref_cfg = base_cfg;
    ref_cfg.threads = 1;
    ref_cfg.telemetry = &ref_sink;
    const auto ref = runExact(k->build_small(), m, ref_cfg);
    ASSERT_TRUE(ref.cert.complete) << kernel;
    EXPECT_EQ(ref.best_cost, ball.optimum) << kernel;
    const std::string ref_trace = stripField(ref_sink.buffered(), "wall_ms");
    ASSERT_FALSE(ref_trace.empty());

    SCOPED_TRACE(::testing::Message() << kernel << " threads=8");
    Telemetry sink;
    ExactConfig cfg = base_cfg;
    cfg.threads = 8;
    cfg.telemetry = &sink;
    const auto r = runExact(k->build_small(), m, cfg);
    EXPECT_EQ(r.cert.toJson(), ref.cert.toJson());
    EXPECT_EQ(r.cert.states, ref.cert.states);
    EXPECT_EQ(r.best_cost, ref.best_cost);
    EXPECT_EQ(r.machine_evals, ref.machine_evals);
    EXPECT_TRUE(ir::canonicallyEqual(r.best, ref.best));
    EXPECT_EQ(stripField(sink.buffered(), "wall_ms"), ref_trace);
  }
}

/// A machine's cost model that records the canonical hash of every program
/// handed to evaluate() and lowerBound(), and counts the ones that fail
/// Program::validate. Workers price concurrently, so the record is guarded.
class PriceRecordingMachine final : public machines::Machine {
 public:
  struct Record {
    std::vector<std::uint64_t> evaluated, bounded;
    int invalid = 0;
  };

  explicit PriceRecordingMachine(const machines::Machine& inner)
      : inner_(inner) {}
  const std::string& name() const override { return inner_.name(); }
  const transform::MachineCaps& caps() const override { return inner_.caps(); }
  double evaluate(const ir::Program& p) const override {
    record(p, &Record::evaluated);
    return inner_.evaluate(p);
  }
  double lowerBound(const ir::Program& p) const override {
    record(p, &Record::bounded);
    return inner_.lowerBound(p);
  }
  machines::CostBreakdown evaluateDetailed(
      const ir::Program& p) const override {
    return inner_.evaluateDetailed(p);
  }
  double peakTime(const ir::Program& p) const override {
    return inner_.peakTime(p);
  }

  Record take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(rec_, {});
  }

 private:
  void record(const ir::Program& p,
              std::vector<std::uint64_t> Record::*into) const {
    const std::uint64_t h = ir::canonicalHash(p);
    bool valid = true;
    try {
      p.validate();
    } catch (const Error&) {
      valid = false;
    }
    std::lock_guard<std::mutex> lk(mu_);
    (rec_.*into).push_back(h);
    if (!valid) ++rec_.invalid;
  }

  const machines::Machine& inner_;
  mutable std::mutex mu_;
  mutable Record rec_;
};

TEST(Frontier, PricesExactlyTheAdmittedChildren) {
  // Each admitted child is priced in place on its entry's DeltaContext
  // scratch tree. The model must be handed exactly the admitted children,
  // each once and each a valid program: unpruned, the evaluated hashes after
  // the root's base price are the reference ball minus the root; pruned,
  // the bounded hashes are the evaluated ones. A missed undo or a stale
  // scratch tree hands the model some other program, and the hashes stop
  // matching.
  for (const char* kernel : {"mul", "relu", "reducemean"}) {
    const auto* k = kernels::findKernel(kernel);
    ASSERT_NE(k, nullptr);
    const ir::Program p = k->build_small();
    for (const auto* inner :
         {&machines::snitch(), &machines::xeon(), &machines::gh200()}) {
      const auto ball = reference::exactBall(p, *inner, 2);
      std::vector<std::uint64_t> children(ball.hashes.begin() + 1,
                                          ball.hashes.end());
      std::sort(children.begin(), children.end());
      // The root's base price comes first; the rest are the children priced.
      auto pricedChildren = [&](std::vector<std::uint64_t> evaluated) {
        EXPECT_FALSE(evaluated.empty());
        if (evaluated.empty()) return evaluated;
        EXPECT_EQ(evaluated.front(), ball.hashes.front());
        evaluated.erase(evaluated.begin());
        std::sort(evaluated.begin(), evaluated.end());
        return evaluated;
      };
      PriceRecordingMachine m(*inner);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << kernel << " on " << inner->name()
                                          << " threads=" << threads);
        ExactConfig cfg;
        cfg.depth = 2;
        cfg.threads = threads;
        cfg.kernel_label = kernel;
        cfg.prune = false;
        runExact(p, m, cfg);
        auto rec = m.take();
        EXPECT_EQ(rec.invalid, 0);
        EXPECT_TRUE(rec.bounded.empty());
        EXPECT_EQ(pricedChildren(rec.evaluated), children);

        cfg.prune = true;
        runExact(p, m, cfg);
        rec = m.take();
        EXPECT_EQ(rec.invalid, 0);
        EXPECT_FALSE(rec.bounded.empty());
        std::sort(rec.bounded.begin(), rec.bounded.end());
        EXPECT_EQ(rec.bounded, pricedChildren(rec.evaluated))
            << "every admitted child is evaluated and bounded, once each";
      }
    }
  }
}

/// A machine's cost model whose evaluate() throws on one program, by
/// canonical hash, until disarmed.
class ThrowingMachine final : public machines::Machine {
 public:
  ThrowingMachine(const machines::Machine& inner, std::uint64_t target)
      : inner_(inner), target_(target) {}
  const std::string& name() const override { return inner_.name(); }
  const transform::MachineCaps& caps() const override { return inner_.caps(); }
  double evaluate(const ir::Program& p) const override {
    if (armed_ && ir::canonicalHash(p) == target_)
      throw std::runtime_error("injected evaluate failure");
    return inner_.evaluate(p);
  }
  double lowerBound(const ir::Program& p) const override {
    return inner_.lowerBound(p);
  }
  machines::CostBreakdown evaluateDetailed(
      const ir::Program& p) const override {
    return inner_.evaluateDetailed(p);
  }
  double peakTime(const ir::Program& p) const override {
    return inner_.peakTime(p);
  }
  void disarm() { armed_ = false; }

 private:
  const machines::Machine& inner_;
  const std::uint64_t target_;
  bool armed_ = true;
};

TEST(Frontier, WorkerExceptionSurfacesFromRunExact) {
  // A cost model that throws while the pool prices a level fails the run
  // with that error once the batch drains, and leaves nothing behind: the
  // same pair then reproduces its recorded certificate.
  ExactCertificate want;
  std::string err;
  ASSERT_TRUE(parseCertificate(
      readTextFile(std::string(PD_EXACT_BASELINE_DIR) + "/relu_xeon_d3.json"),
      want, &err))
      << err;
  const auto* k = kernels::findKernel(want.kernel);
  const auto* inner = machines::findMachine(want.machine);
  ASSERT_NE(k, nullptr);
  ASSERT_NE(inner, nullptr);
  const ir::Program p = k->build_small();
  ExactConfig cfg;
  cfg.depth = want.depth;
  cfg.threads = 1;
  cfg.kernel_label = want.kernel;
  // The failing child is the one priced halfway through a serial run: deep
  // in the ball, where one pricing batch spans many frontier entries.
  PriceRecordingMachine recorder(*inner);
  runExact(p, recorder, cfg);
  const auto evaluated = recorder.take().evaluated;
  ASSERT_GT(evaluated.size(), 2u);

  ThrowingMachine m(*inner, evaluated[evaluated.size() / 2]);
  cfg.threads = 4;
  try {
    runExact(p, m, cfg);
    ADD_FAILURE() << "runExact swallowed the evaluate failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected evaluate failure");
  }
  m.disarm();
  auto r = runExact(p, m, cfg);
  r.cert.sa_gate = want.sa_gate;
  r.cert.heuristic_gate = want.heuristic_gate;
  EXPECT_EQ(r.cert.toJson(), want.toJson());
}

TEST(Frontier, TelemetryCarriesBeginLevelsEnd) {
  const auto* k = kernels::findKernel("mul");
  ASSERT_NE(k, nullptr);
  Telemetry sink;
  ExactConfig cfg;
  cfg.depth = 2;
  cfg.kernel_label = "mul";
  cfg.telemetry = &sink;
  const auto r = runExact(k->build_small(), machines::snitch(), cfg);
  std::vector<std::string> ls;
  {
    std::string buf = sink.buffered(), line;
    std::size_t start = 0;
    while (start < buf.size()) {
      const auto nl = buf.find('\n', start);
      ls.push_back(buf.substr(start, nl - start));
      if (nl == std::string::npos) break;
      start = nl + 1;
    }
  }
  ASSERT_GE(ls.size(), 2u + static_cast<std::size_t>(cfg.depth));
  JsonValue first, last;
  ASSERT_TRUE(parseJson(ls.front(), first));
  ASSERT_TRUE(parseJson(ls.back(), last));
  EXPECT_EQ(first.stringOr("type", ""), "exact_begin");
  EXPECT_EQ(first.stringOr("machine", ""), "snitch");
  EXPECT_EQ(first.stringOr("kernel", ""), "mul");
  EXPECT_EQ(last.stringOr("type", ""), "exact_end");
  EXPECT_EQ(last.stringOr("reason", ""), "space_exhausted");
  EXPECT_TRUE(last.boolOr("complete", false));
  EXPECT_DOUBLE_EQ(last.numberOr("states", -1),
                   static_cast<double>(r.cert.states));
  EXPECT_DOUBLE_EQ(last.numberOr("optimal_cost", -1), r.best_cost);
  int levels = 0;
  for (const auto& l : ls)
    if (l.find("\"type\":\"exact_level\"") != std::string::npos) ++levels;
  EXPECT_EQ(levels, cfg.depth);
}

}  // namespace
}  // namespace perfdojo::search
