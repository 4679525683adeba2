// The differential-fuzzing subsystem: oracle layers, witness serialization,
// delta-debugging minimizer, corpus replay — and the meta-test the subsystem
// exists for: a deliberately mis-detected transformation (injected through
// the transform-list hook) must be caught by the oracle, shrunk to a minimal
// trajectory, and reproduce deterministically from its witness file.
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "codegen/c_runner.h"
#include "fuzz/fuzzer.h"
#include "fuzz/minimize.h"
#include "fuzz/oracle.h"
#include "fuzz/witness.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/pass.h"
#include "support/common.h"
#include "support/rng.h"
#include "verify/verifier.h"

namespace perfdojo::fuzz {
namespace {

using transform::Action;
using transform::Location;
using transform::MachineCaps;
using transform::Step;
using transform::Transform;

// --- Test-only broken transforms (the injected mis-detections) -------------

/// Claims applicability at every Mul op and "applies" by rewriting it to Add:
/// a semantics break that the interp layer must catch.
class EvilMulToAdd : public Transform {
 public:
  std::string name() const override { return "evil_mul_to_add"; }
  using Transform::findApplicable;
  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    std::vector<Location> locs;
    for (const auto* op : ir::collectOps(ix.program().root))
      if (op->op == ir::OpCode::Mul) {
        Location l;
        l.node = op->id;
        locs.push_back(l);
      }
    return locs;
  }
  ir::Program apply(const ir::Program& p, const Location& loc) const override {
    ir::Program q = p;
    ir::Node* n = ir::findNode(q.root, loc.node);
    require(n && n->isOp() && n->op == ir::OpCode::Mul,
            "evil_mul_to_add: stale location");
    n->op = ir::OpCode::Add;
    return q;
  }
};

/// Offers a location whose apply always throws: the applicability detection
/// and the application disagree, which the Apply layer must catch.
class EvilOfferThenThrow : public Transform {
 public:
  std::string name() const override { return "evil_offer_then_throw"; }
  using Transform::findApplicable;
  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    Location l;
    l.node = ix.rootId();
    return {l};
  }
  ir::Program apply(const ir::Program&, const Location&) const override {
    fail("evil_offer_then_throw: apply rejects its own offered location");
  }
};

/// Annotates a loop (interp-neutral, round-trips fine) but *reports no
/// mutation*: the incrementally maintained canonical hash silently goes
/// stale — the under-reporting bug class only the incremental-hash layer
/// can catch, because every other layer sees a perfectly healthy program.
class EvilSilentAnnotate : public Transform {
 public:
  std::string name() const override { return "evil_silent_annotate"; }
  using Transform::findApplicable;
  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    std::vector<Location> locs;
    collect(ix.program().root, locs);
    return locs;
  }
  ir::Program apply(const ir::Program& p, const Location& loc) const override {
    ir::Program q = p;
    mutate(q, loc);
    return q;
  }
  void applyInPlace(ir::Program& q, const Location& loc,
                    ir::MutationSummary* mut, bool) const override {
    mutate(q, loc);
    if (mut) *mut = ir::MutationSummary::none();  // the lie under test
  }

 private:
  static void collect(const ir::Node& n, std::vector<Location>& locs) {
    for (const auto& c : n.children) {
      if (!c.isScope()) continue;
      if (c.anno == ir::LoopAnno::None) {
        Location l;
        l.node = c.id;
        locs.push_back(l);
      }
      collect(c, locs);
    }
  }
  static void mutate(ir::Program& q, const Location& loc) {
    ir::Node* n = ir::findNode(q.root, loc.node);
    require(n && n->isScope() && n->anno == ir::LoopAnno::None,
            "evil_silent_annotate: stale location");
    n->anno = ir::LoopAnno::Unroll;
  }
};

/// Stores every internal buffer as i32. The interpreter computes in f64
/// whatever the declared type, so interp, round trip and cache all pass;
/// only the compiled C truncates the scratch values: a finding of the
/// codegen layer alone.
class EvilIntScratch : public Transform {
 public:
  std::string name() const override { return "evil_int_scratch"; }
  using Transform::findApplicable;
  std::vector<Location> findApplicable(const ir::ProgramIndex& ix,
                                       const MachineCaps&) const override {
    Location l;
    l.node = ix.rootId();
    return {l};
  }
  ir::Program apply(const ir::Program& p, const Location&) const override {
    ir::Program q = p;
    bool any = false;
    for (auto& b : q.buffers) {
      bool external = false;
      for (const auto& a : b.arrays) external = external || q.isExternal(a);
      if (external || b.dtype == ir::DType::I32) continue;
      b.dtype = ir::DType::I32;
      any = true;
    }
    require(any, "evil_int_scratch: no floating-point scratch buffer");
    return q;
  }
};

const EvilMulToAdd& evilMulToAdd() {
  static const EvilMulToAdd t;
  return t;
}
const EvilOfferThenThrow& evilOfferThenThrow() {
  static const EvilOfferThenThrow t;
  return t;
}
const EvilSilentAnnotate& evilSilentAnnotate() {
  static const EvilSilentAnnotate t;
  return t;
}
const EvilIntScratch& evilIntScratch() {
  static const EvilIntScratch t;
  return t;
}

/// Resolver that also knows the test-only transforms.
const Transform* testResolver(const std::string& name) {
  if (name == evilMulToAdd().name()) return &evilMulToAdd();
  if (name == evilOfferThenThrow().name()) return &evilOfferThenThrow();
  if (name == evilSilentAnnotate().name()) return &evilSilentAnnotate();
  if (name == evilIntScratch().name()) return &evilIntScratch();
  return transform::findTransform(name);
}

std::string tempDir(const std::string& leaf) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A short deterministic benign trajectory on `label` under `profile`.
Witness benignWitness(const std::string& label, const std::string& profile,
                      int steps, std::uint64_t seed) {
  const auto* k = kernels::findKernel(label);
  EXPECT_NE(k, nullptr);
  const auto* prof = findProfile(profile);
  EXPECT_NE(prof, nullptr);
  Witness w;
  w.kernel = label;
  w.profile = profile;
  w.seed = seed;
  Rng rng(seed);
  ir::Program p = k->build_small();
  for (int i = 0; i < steps; ++i) {
    const auto actions = transform::allActions(p, prof->caps);
    if (actions.empty()) break;
    const auto& a = actions[rng.uniform(actions.size())];
    p = a.apply(p);
    w.steps.push_back({a.transform, a.loc});
  }
  return w;
}

// --- Serialization ---------------------------------------------------------

TEST(Witness, LocationTextRoundTrips) {
  Location loc;
  loc.node = 42;
  loc.buffer = "acc";
  loc.dim = 1;
  loc.dim2 = 3;
  loc.param = 16;
  loc.space = ir::MemSpace::Stack;
  Location back;
  ASSERT_TRUE(transform::locationFromText(transform::locationToText(loc), back));
  EXPECT_TRUE(loc == back);

  Location minimal;  // all defaults except node
  minimal.node = 7;
  ASSERT_TRUE(
      transform::locationFromText(transform::locationToText(minimal), back));
  EXPECT_TRUE(minimal == back);

  EXPECT_FALSE(transform::locationFromText("node", back));
  EXPECT_FALSE(transform::locationFromText("space=moon", back));
  EXPECT_FALSE(transform::locationFromText("frob=1", back));

  // Out-of-range numerics must be rejected, not saturated: strtoll clamps to
  // INT64_MIN/MAX on overflow, and a forged witness carrying such a value
  // would otherwise silently round-trip to a different location.
  EXPECT_FALSE(transform::locationFromText("node=99999999999999999999", back));
  EXPECT_FALSE(transform::locationFromText("param=-99999999999999999999", back));
  EXPECT_FALSE(transform::locationFromText("dim=12x", back));
  EXPECT_FALSE(transform::locationFromText("param=", back));
}

TEST(Witness, TextRoundTrips) {
  Witness w = benignWitness("softmax", "cpu", 4, 11);
  w.layer = "interp";
  w.detail = "trial 0: mismatch at y[0,1]";
  const Witness back = witnessFromText(witnessToText(w));
  EXPECT_EQ(back.kernel, w.kernel);
  EXPECT_EQ(back.profile, w.profile);
  EXPECT_EQ(back.seed, w.seed);
  EXPECT_EQ(back.layer, w.layer);
  EXPECT_EQ(back.detail, w.detail);
  ASSERT_EQ(back.steps.size(), w.steps.size());
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    EXPECT_EQ(back.steps[i].transform, w.steps[i].transform);
    EXPECT_TRUE(back.steps[i].loc == w.steps[i].loc);
  }
}

TEST(Witness, RejectsMalformedInput) {
  EXPECT_THROW(witnessFromText("kernel softmax\n"), Error);  // no header
  EXPECT_THROW(witnessFromText("perfdojo-witness v1\nprofile cpu\n"), Error);
  EXPECT_THROW(witnessFromText("perfdojo-witness v1\nkernel k\nprofile cpu\n"
                               "action no_such_transform | node=1\n"),
               Error);
}

// --- Oracle ----------------------------------------------------------------

TEST(Oracle, PassesOnHeuristicSchedule) {
  const ir::Program original = kernels::makeSoftmax(6, 10);
  const auto h = search::heuristicPass(original, machines::xeon());
  OracleOptions opts;
  opts.check_codegen = true;
  search::EvalCache cache;
  const auto r =
      checkOracle(original, h.current(), machines::xeon(), &cache, opts);
  EXPECT_TRUE(r.ok) << oracleLayerName(r.layer) << ": " << r.detail;
}

TEST(Oracle, CatchesSemanticBreakAtInterpLayer) {
  const ir::Program p = kernels::makeMul(4, 6);
  const auto locs = evilMulToAdd().findApplicable(p, findProfile("cpu")->caps);
  ASSERT_FALSE(locs.empty());
  const ir::Program q = evilMulToAdd().apply(p, locs[0]);
  OracleOptions opts;
  search::EvalCache cache;
  const auto r = checkOracle(p, q, machines::xeon(), &cache, opts);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.layer, OracleLayer::Interp);
  EXPECT_NE(r.detail.find("mismatch"), std::string::npos) << r.detail;
}

TEST(Oracle, CodegenLayerAgreesOnTransformedPrograms) {
  const ir::Program original = kernels::makeReduceMean(5, 9);
  const auto h = search::heuristicPass(original, machines::xeon());
  OracleOptions opts;
  const auto r = checkCodegenAgreement(h.current(), opts);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Oracle, CacheSelfCheckDetectsPoisonedEntry) {
  const ir::Program p = kernels::makeAdd(4, 4);
  const auto& m = machines::xeon();
  search::EvalCache cache;
  std::string detail;
  EXPECT_TRUE(cache.selfCheck(m, p, &detail)) << detail;

  // Poison the memo table with a wrong cost for p's canonical hash: the
  // self-check must notice the divergence from a fresh evaluation.
  search::EvalCache poisoned;
  poisoned.insert(m, ir::canonicalHash(p), m.evaluate(p) * 2 + 1);
  EXPECT_FALSE(poisoned.selfCheck(m, p, &detail));
  EXPECT_NE(detail.find("memoized cost"), std::string::npos) << detail;
}

// --- Minimizer -------------------------------------------------------------

TEST(Minimizer, ShrinksToSingleEvilStep) {
  const ir::Program original = kernels::makeMul(6, 8);
  const auto* prof = findProfile("cpu");
  ASSERT_NE(prof, nullptr);

  // Two benign real actions, then the injected break.
  Rng rng(3);
  ir::Program p = original;
  std::vector<Step> steps;
  for (int i = 0; i < 2; ++i) {
    const auto actions = transform::allActions(p, prof->caps);
    ASSERT_FALSE(actions.empty());
    const auto& a = actions[rng.uniform(actions.size())];
    steps.push_back({a.transform, a.loc});
    p = a.apply(p);
  }
  const auto evil_locs = evilMulToAdd().findApplicable(p, prof->caps);
  ASSERT_FALSE(evil_locs.empty());
  steps.push_back({&evilMulToAdd(), evil_locs[0]});

  verify::VerifyOptions vo;
  vo.trials = 1;
  const FailurePredicate fails = [&](const std::vector<Step>& cand) {
    transform::History::ReplayResult rr;
    const auto q = transform::History::replay(original, cand, rr);
    if (!q) return false;
    return !verify::verifyEquivalent(original, *q, vo).equivalent;
  };
  ASSERT_TRUE(fails(steps));

  MinimizeStats ms;
  const auto minimal = minimizeTrajectory(steps, fails, &ms);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0].transform, &evilMulToAdd());
  EXPECT_EQ(ms.initial_steps, 3u);
  EXPECT_EQ(ms.final_steps, 1u);
  EXPECT_TRUE(fails(minimal));
}

// --- The meta-test ---------------------------------------------------------

TEST(MetaTest, InjectedMisdetectionIsCaughtShrunkAndReplayable) {
  const std::string dir = tempDir("fuzz_meta");
  FuzzConfig cfg;
  cfg.seed = 5;
  cfg.kernels = {"mul"};
  cfg.profiles = {"cpu"};
  cfg.trajectories = 6;
  cfg.max_steps = 8;
  cfg.codegen_final = false;  // the injected bug is semantic, keep it fast
  cfg.witness_dir = dir;
  cfg.transforms = {&transform::splitScope(), &transform::interchangeScopes(),
                    &evilMulToAdd()};

  const auto r = runFuzz(cfg);
  ASSERT_FALSE(r.ok()) << "oracle missed the injected mis-detection";
  const Finding& f = r.findings.front();
  EXPECT_EQ(f.witness.layer, "interp");
  ASSERT_LE(f.witness.steps.size(), 3u);
  ASSERT_GE(f.witness.steps.size(), 1u);
  EXPECT_EQ(f.witness.steps.back().transform, &evilMulToAdd());
  ASSERT_FALSE(f.file.empty());

  // The emitted replay file must reproduce the failure, deterministically.
  const Witness w = readWitnessFile(f.file, &testResolver);
  OracleOptions opts;
  const auto r1 = runWitness(w, opts);
  const auto r2 = runWitness(w, opts);
  ASSERT_FALSE(r1.ok);
  EXPECT_EQ(r1.layer, OracleLayer::Interp);
  EXPECT_EQ(r1.detail, r2.detail);
  EXPECT_EQ(r1.layer, r2.layer);
  EXPECT_EQ(f.report.detail, r1.detail);
}

TEST(MetaTest, UnderReportedMutationIsCaughtAtIncrementalHashLayer) {
  // The annotation itself is harmless — interp, roundtrip, cache and codegen
  // all pass on the resulting program. Only the incremental-hash layer,
  // cross-checking the walk's maintained hash against a full re-render,
  // can expose the missing MutationSummary.
  FuzzConfig cfg;
  cfg.seed = 11;
  cfg.kernels = {"add"};
  cfg.profiles = {"cpu"};
  cfg.trajectories = 4;
  cfg.max_steps = 6;
  cfg.codegen_final = false;
  cfg.transforms = {&transform::splitScope(), &evilSilentAnnotate()};

  const auto r = runFuzz(cfg);
  ASSERT_FALSE(r.ok()) << "incremental-hash layer missed the silent mutation";
  const Finding& f = r.findings.front();
  EXPECT_EQ(f.witness.layer, "incremental-hash");
  ASSERT_GE(f.witness.steps.size(), 1u);
  // The minimizer replays incrementally, so the shrunk trajectory must still
  // end in (and typically consist only of) the under-reporting step.
  EXPECT_EQ(f.witness.steps.back().transform, &evilSilentAnnotate());
  EXPECT_NE(f.report.detail.find("full re-render"), std::string::npos)
      << f.report.detail;
}

TEST(MetaTest, OfferThenThrowIsCaughtAtApplyLayer) {
  FuzzConfig cfg;
  cfg.seed = 2;
  cfg.kernels = {"add"};
  cfg.profiles = {"cpu"};
  cfg.trajectories = 1;
  cfg.max_steps = 4;
  cfg.codegen_final = false;
  cfg.transforms = {&transform::splitScope(), &evilOfferThenThrow()};

  const auto r = runFuzz(cfg);
  ASSERT_FALSE(r.ok());
  const Finding& f = r.findings.front();
  EXPECT_EQ(f.witness.layer, "apply");
  EXPECT_EQ(f.witness.steps.size(), 1u);
  EXPECT_EQ(f.witness.steps.back().transform, &evilOfferThenThrow());
}

// --- Corpus + replay -------------------------------------------------------

TEST(Corpus, BenignSeedsPassAndPoisonedSeedRegresses) {
  const std::string dir = tempDir("fuzz_corpus");
  writeWitnessFile(dir + "/a_softmax.witness",
                   benignWitness("softmax", "cpu", 4, 21));
  writeWitnessFile(dir + "/b_matmul.witness",
                   benignWitness("matmul", "gpu", 3, 22));

  OracleOptions opts;
  const auto ok = runCorpus(dir, opts, &testResolver);
  EXPECT_EQ(ok.total, 2);
  EXPECT_TRUE(ok.ok()) << (ok.failures.empty()
                               ? ""
                               : ok.failures.front().second.detail);

  // Add a witness for a still-broken transform: the corpus run must flag it.
  Witness bad;
  bad.kernel = "mul";
  bad.profile = "cpu";
  bad.seed = 9;
  bad.layer = "interp";
  const ir::Program p = kernels::findKernel("mul")->build_small();
  const auto locs = evilMulToAdd().findApplicable(p, findProfile("cpu")->caps);
  ASSERT_FALSE(locs.empty());
  bad.steps.push_back({&evilMulToAdd(), locs[0]});
  writeWitnessFile(dir + "/c_bad.witness", bad);

  const auto regressed = runCorpus(dir, opts, &testResolver);
  EXPECT_EQ(regressed.total, 3);
  ASSERT_EQ(regressed.failures.size(), 1u);
  EXPECT_NE(regressed.failures[0].first.find("c_bad"), std::string::npos);
  EXPECT_EQ(regressed.failures[0].second.layer, OracleLayer::Interp);
}

TEST(Corpus, CodegenWitnessReplaysWithTheCodegenLayer) {
  // The codegen layer is off by default (it runs the C compiler), so a
  // replay with default options must still turn on the layer a witness
  // names: otherwise a codegen witness always replays as ok and a corpus of
  // them guards nothing.
  if (!codegen::haveCCompiler()) GTEST_SKIP() << "no C compiler";
  Witness w;
  w.kernel = "softmax";
  w.profile = "cpu";
  w.seed = 4;
  w.layer = "codegen";
  const ir::Program p = kernels::findKernel(w.kernel)->build_small();
  const auto locs =
      evilIntScratch().findApplicable(p, findProfile(w.profile)->caps);
  ASSERT_FALSE(locs.empty());
  w.steps.push_back({&evilIntScratch(), locs[0]});

  const OracleOptions opts;
  ASSERT_FALSE(opts.check_codegen);
  const auto r = runWitness(w, opts);
  ASSERT_FALSE(r.ok) << "a codegen witness replayed without the codegen layer";
  EXPECT_EQ(r.layer, OracleLayer::Codegen) << r.detail;

  const std::string dir = tempDir("fuzz_codegen_corpus");
  writeWitnessFile(dir + "/softmax_cpu_codegen.witness", w);
  const auto cr = runCorpus(dir, opts, &testResolver);
  EXPECT_EQ(cr.total, 1);
  ASSERT_EQ(cr.failures.size(), 1u);
  EXPECT_EQ(cr.failures[0].second.layer, OracleLayer::Codegen);
}

TEST(Fuzzer, BudgetedRunTerminatesAndIsClean) {
  FuzzConfig cfg;
  cfg.seed = 17;
  cfg.kernels = {"relu", "dot"};
  cfg.budget_sec = 1.0;
  cfg.max_steps = 6;
  cfg.codegen_final = false;
  const auto r = runFuzz(cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.stats.trajectories, 0);
  EXPECT_LT(r.stats.wall_sec, 30.0);
}

}  // namespace
}  // namespace perfdojo::fuzz
