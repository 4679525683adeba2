#include "fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <set>

#include "ir/arena.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "kernels/kernels.h"
#include "search/delta.h"
#include "support/common.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace perfdojo::fuzz {

namespace {

using transform::Step;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Per-trajectory seed derived only from stable identifiers, never from
/// wall-clock state, so witnesses replay identically under any budget.
std::uint64_t trajectorySeed(std::uint64_t base, const std::string& kernel,
                             const std::string& profile, std::int64_t index) {
  std::uint64_t h = fnv1a(kernel, fnv1a(profile));
  h ^= base * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(index + 1) * 0xbf58476d1ce4e5b9ull;
  return h;
}

OracleReport applyFailure(std::size_t step_index, const std::string& what) {
  OracleReport r;
  r.ok = false;
  r.layer = OracleLayer::Apply;
  r.detail = "step " + std::to_string(step_index) + ": " + what;
  return r;
}

/// The layers an OracleOptions switch turns on or off (apply has none: every
/// walk and replay checks it).
constexpr OracleLayer kSwitchedLayers[] = {
    OracleLayer::Interp, OracleLayer::RoundTrip,  OracleLayer::IncHash,
    OracleLayer::Cache,  OracleLayer::ArenaDelta, OracleLayer::Codegen};

bool& layerSwitch(OracleOptions& o, OracleLayer layer) {
  switch (layer) {
    case OracleLayer::Interp: return o.check_interp;
    case OracleLayer::RoundTrip: return o.check_roundtrip;
    case OracleLayer::IncHash: return o.check_incremental;
    case OracleLayer::Cache: return o.check_cache;
    case OracleLayer::ArenaDelta: return o.check_arena;
    case OracleLayer::Codegen: return o.check_codegen;
    default: fail(std::string("fuzz: no switch for oracle layer ") +
                  oracleLayerName(layer));
  }
}

/// Enables only `layer` so shrink candidates are judged against the failure
/// class under investigation, not incidental other mismatches.
OracleOptions restrictTo(const OracleOptions& opts, OracleLayer layer) {
  OracleOptions o = opts;
  for (const OracleLayer l : kSwitchedLayers) layerSwitch(o, l) = l == layer;
  return o;
}

/// The arena-delta oracle: price the (base, action) pair through a
/// DeltaContext and demand bit-identity with the full copy-based canonical
/// hash of the applied result, then commit the same action while it is
/// still applied from that visit and demand that the committed base hashes
/// and renders to that value too. `full_hash` is the caller's
/// already-computed canonicalHash(action.apply(base)).
OracleReport checkArenaDelta(const ir::Program& base,
                             const transform::Action& a,
                             std::uint64_t full_hash,
                             std::size_t step_index) {
  OracleReport r;
  search::DeltaContext dctx;
  dctx.bind(base);
  std::string what;
  try {
    const std::uint64_t h = dctx.neighborVisit(a, nullptr);
    if (h != full_hash) {
      what = "delta hash " + std::to_string(h) +
             " != full canonical hash " + std::to_string(full_hash);
    } else {
      dctx.accept(a);
      if (dctx.baseHash() != full_hash)
        what = "committed base hash " + std::to_string(dctx.baseHash()) +
               " != full canonical hash " + std::to_string(full_hash);
      else if (ir::canonicalHash(dctx.base()) != full_hash)
        what = "committed base renders to hash " +
               std::to_string(ir::canonicalHash(dctx.base())) +
               " != full canonical hash " + std::to_string(full_hash);
    }
  } catch (const Error& e) {
    // The copy-based apply succeeded (full_hash exists), so an in-place
    // refusal is a delta-pricing divergence, not an apply-layer finding.
    what = std::string("delta context threw: ") + e.what();
  }
  if (what.empty()) return r;
  r.ok = false;
  r.layer = OracleLayer::ArenaDelta;
  r.detail = "step " + std::to_string(step_index) + ": " + what;
  return r;
}

/// Replays `steps` and runs the oracle on the result; replay failures come
/// back as OracleLayer::Apply. Shared by runWitness and finding finalization.
/// The replay is incremental — each step mutates in place and rebases a
/// CanonicalArena from its MutationSummary — so incremental-hash witnesses
/// reproduce the exact maintenance path that diverged during the walk.
OracleReport reportForSteps(const ir::Program& original,
                            const std::vector<Step>& steps,
                            const CapsProfile& prof,
                            const OracleOptions& opts) {
  ir::Program q = original;
  ir::CanonicalArena canon(q);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    std::optional<ir::Program> base;
    if (opts.check_arena) base.emplace(q);  // pre-apply state for the oracle
    ir::MutationSummary mut;
    try {
      steps[i].transform->applyInPlace(q, steps[i].loc, &mut);
    } catch (const Error& e) {
      return applyFailure(i, e.what());
    }
    canon.rebase(q, mut);
    if (base) {
      const auto r = checkArenaDelta(
          *base, {steps[i].transform, steps[i].loc}, ir::canonicalHash(q), i);
      if (!r.ok) return r;
    }
  }
  search::EvalCache cache;
  const std::uint64_t h = canon.hash();
  return checkOracle(original, q, *prof.machine, &cache, opts, &h);
}

struct TrajectoryOutcome {
  std::vector<Step> steps;  // trajectory up to and including the bad action
  OracleReport report;      // ok when the walk finished clean
};

TrajectoryOutcome walkOne(const ir::Program& original, const CapsProfile& prof,
                          const std::vector<const transform::Transform*>& lib,
                          std::uint64_t seed, const FuzzConfig& cfg,
                          search::EvalCache& cache, FuzzStats& stats) {
  TrajectoryOutcome out;
  Rng rng(seed);
  OracleOptions opts = cfg.oracle;
  opts.verify.seed = seed;
  ir::Program p = original;
  // The walk maintains its canonical hash incrementally across steps; every
  // oracle call cross-checks it against a full re-render (the
  // incremental-hash layer), so an under-reporting MutationSummary anywhere
  // in the transform library surfaces as a finding.
  ir::CanonicalArena canon(p);
  for (int step = 0; step < cfg.max_steps; ++step) {
    const auto actions = transform::allActions(p, prof.caps, lib);
    if (actions.empty()) break;
    const auto& a = actions[rng.uniform(actions.size())];
    out.steps.push_back({a.transform, a.loc});
    ++stats.steps;
    ir::Program q = p;
    ir::MutationSummary mut;
    try {
      a.transform->applyInPlace(q, a.loc, &mut);
    } catch (const Error& e) {
      out.report = applyFailure(out.steps.size() - 1, e.what());
      return out;
    }
    canon.rebase(q, mut);
    ++stats.oracle_checks;
    const std::uint64_t h = canon.hash();
    out.report = checkOracle(original, q, *prof.machine, &cache, opts, &h);
    if (!out.report.ok) return out;
    if (opts.check_arena) {
      // Arena-delta layer: the same step, priced through a DeltaContext,
      // must produce the hash the copy path just produced.
      out.report = checkArenaDelta(p, a, ir::canonicalHash(q),
                                   out.steps.size() - 1);
      if (!out.report.ok) return out;
    }
    p = std::move(q);
  }
  if (cfg.codegen_final && !opts.check_codegen && !out.steps.empty()) {
    ++stats.oracle_checks;
    out.report = checkCodegenAgreement(p, opts);
  }
  return out;
}

/// Predicate for the minimizer: does `cand` still reproduce a failure of the
/// same oracle layer? Apply-class failures additionally demand that the last
/// action is *offered* by findApplicable on the replayed prefix — that is the
/// mis-detection being witnessed, not a stale location.
FailurePredicate predicateFor(const ir::Program& original,
                              const CapsProfile& prof, OracleLayer layer,
                              const OracleOptions& opts) {
  const OracleOptions only = restrictTo(opts, layer);
  return [&original, &prof, layer, only](const std::vector<Step>& cand) {
    if (cand.empty()) return false;
    if (layer == OracleLayer::Apply) {
      const std::vector<Step> prefix(cand.begin(), cand.end() - 1);
      transform::History::ReplayResult rr;
      const auto q = transform::History::replay(original, prefix, rr);
      if (!q) return false;
      const Step& last = cand.back();
      const auto offered = last.transform->findApplicable(*q, prof.caps);
      if (std::find(offered.begin(), offered.end(), last.loc) == offered.end())
        return false;
      try {
        last.transform->apply(*q, last.loc);
        return false;
      } catch (const Error&) {
        return true;
      }
    }
    const auto r = reportForSteps(original, cand, prof, only);
    return !r.ok && r.layer == layer;
  };
}

std::string dedupKey(const Witness& w) {
  std::string key = w.kernel + "|" + w.profile + "|" + w.layer;
  for (const auto& st : w.steps)
    key += "|" + st.transform->name() + " " + transform::locationToText(st.loc);
  return key;
}

std::string witnessFileName(const Witness& w, std::size_t n) {
  return w.kernel + "_" + w.profile + "_" +
         (w.layer.empty() ? "none" : w.layer) + "_" + std::to_string(n) +
         ".witness";
}

}  // namespace

const std::vector<CapsProfile>& capsProfiles() {
  static const std::vector<CapsProfile> profiles = {
      {"cpu", machines::xeon().caps(), &machines::xeon()},
      {"gpu", machines::gh200().caps(), &machines::gh200()},
      {"snitch", machines::snitch().caps(), &machines::snitch()},
  };
  return profiles;
}

const CapsProfile* findProfile(const std::string& name) {
  for (const auto& p : capsProfiles())
    if (p.name == name) return &p;
  return nullptr;
}

FuzzResult runFuzz(const FuzzConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  FuzzResult result;

  std::vector<std::string> kernel_labels = cfg.kernels;
  if (kernel_labels.empty()) {
    for (const auto* cat : {&kernels::table3(), &kernels::snitchMicro()})
      for (const auto& k : *cat) kernel_labels.push_back(k.label);
  }
  std::vector<const CapsProfile*> profiles;
  if (cfg.profiles.empty()) {
    for (const auto& p : capsProfiles()) profiles.push_back(&p);
  } else {
    for (const auto& name : cfg.profiles) {
      const auto* p = findProfile(name);
      require(p != nullptr, "fuzz: unknown caps profile '" + name + "'");
      profiles.push_back(p);
    }
  }
  const std::vector<const transform::Transform*>& lib =
      cfg.transforms.empty() ? transform::allTransforms() : cfg.transforms;

  struct Pair {
    const kernels::KernelInfo* kernel;
    const CapsProfile* profile;
    ir::Program original;
  };
  std::vector<Pair> pairs;
  for (const auto& label : kernel_labels) {
    const auto* k = kernels::findKernel(label);
    require(k != nullptr, "fuzz: unknown kernel '" + label + "'");
    for (const auto* p : profiles) pairs.push_back({k, p, k->build_small()});
  }

  search::EvalCache cache;  // shared across the whole run (see oracle.h)
  std::set<std::string> seen;
  if (!cfg.witness_dir.empty())
    std::filesystem::create_directories(cfg.witness_dir);

  auto record = [&](const Pair& pair, std::vector<Step> steps,
                    OracleReport report, std::uint64_t traj_seed) {
    OracleOptions opts = cfg.oracle;
    opts.verify.seed = traj_seed;
    if (cfg.minimize && !steps.empty()) {
      MinimizeStats ms;
      steps = minimizeTrajectory(
          std::move(steps),
          predicateFor(pair.original, *pair.profile, report.layer, opts), &ms);
      result.stats.minimizer_runs += ms.predicate_runs;
      // Re-derive the report for the minimized trajectory; keep the original
      // one if shrinking lost the reproduction (e.g. a cross-trajectory
      // cache inconsistency that needs shared state).
      const auto shrunk = reportForSteps(pair.original, steps, *pair.profile,
                                         restrictTo(opts, report.layer));
      if (!shrunk.ok) report = shrunk;
    }
    Witness w;
    w.kernel = pair.kernel->label;
    w.profile = pair.profile->name;
    w.seed = traj_seed;
    w.layer = oracleLayerName(report.layer);
    w.detail = report.detail;
    w.steps = std::move(steps);
    if (!seen.insert(dedupKey(w)).second) return;
    Finding f;
    f.witness = std::move(w);
    f.report = std::move(report);
    if (!cfg.witness_dir.empty()) {
      const auto path = std::filesystem::path(cfg.witness_dir) /
                        witnessFileName(f.witness, result.findings.size());
      writeWitnessFile(path.string(), f.witness);
      f.file = path.string();
    }
    if (cfg.telemetry)
      cfg.telemetry->emit(
          Event("fuzz_finding")
              .str("kernel", f.witness.kernel)
              .str("profile", f.witness.profile)
              .str("layer", f.witness.layer)
              .integer("steps",
                       static_cast<std::int64_t>(f.witness.steps.size()))
              .str("detail", f.report.detail));
    result.findings.push_back(std::move(f));
  };

  auto runOne = [&](const Pair& pair, std::int64_t index) {
    const std::uint64_t seed = trajectorySeed(
        cfg.seed, pair.kernel->label, pair.profile->name, index);
    if (index == 0) {
      // The unscheduled kernel itself must satisfy the structural layers
      // (round-trip, cache); a failure here is a zero-step witness.
      OracleOptions base = cfg.oracle;
      base.check_interp = false;  // trivially p == p
      base.check_codegen = false;
      base.verify.seed = seed;
      ++result.stats.oracle_checks;
      const auto r = checkOracle(pair.original, pair.original, *pair.profile->machine,
                                 &cache, base);
      if (!r.ok) record(pair, {}, r, seed);
    }
    ++result.stats.trajectories;
    auto out = walkOne(pair.original, *pair.profile, lib, seed, cfg, cache,
                       result.stats);
    if (cfg.telemetry)
      cfg.telemetry->emit(
          Event("fuzz_trajectory")
              .str("kernel", pair.kernel->label)
              .str("profile", pair.profile->name)
              .integer("index", index)
              .integer("steps", static_cast<std::int64_t>(out.steps.size()))
              .boolean("ok", out.report.ok));
    if (!out.report.ok) record(pair, std::move(out.steps), out.report, seed);
  };

  if (cfg.budget_sec > 0) {
    bool expired = false;
    for (std::int64_t round = 0; !expired; ++round) {
      for (const auto& pair : pairs) {
        if (secondsSince(t0) >= cfg.budget_sec) {
          expired = true;
          break;
        }
        runOne(pair, round);
      }
    }
  } else {
    for (const auto& pair : pairs)
      for (int t = 0; t < cfg.trajectories; ++t) runOne(pair, t);
  }

  result.stats.wall_sec = secondsSince(t0);
  return result;
}

OracleReport runWitness(const Witness& w, const OracleOptions& opts) {
  const auto* k = kernels::findKernel(w.kernel);
  require(k != nullptr, "witness: unknown kernel '" + w.kernel + "'");
  const auto* prof = findProfile(w.profile);
  require(prof != nullptr, "witness: unknown profile '" + w.profile + "'");
  OracleOptions o = opts;
  o.verify.seed = w.seed;
  // The layer the witness was found at is checked even where `opts` has it
  // off (codegen is off by default), so a witness cannot replay as ok
  // unchecked.
  for (const OracleLayer l : kSwitchedLayers)
    if (w.layer == oracleLayerName(l)) layerSwitch(o, l) = true;
  return reportForSteps(k->build_small(), w.steps, *prof, o);
}

CorpusResult runCorpus(const std::string& dir, const OracleOptions& opts,
                       const TransformResolver& resolve) {
  CorpusResult result;
  for (const auto& path : listWitnessFiles(dir)) {
    ++result.total;
    try {
      const Witness w = readWitnessFile(path, resolve);
      const auto r = runWitness(w, opts);
      if (!r.ok) result.failures.emplace_back(path, r);
    } catch (const Error& e) {
      OracleReport r;
      r.ok = false;
      r.layer = OracleLayer::None;
      r.detail = e.what();
      result.failures.emplace_back(path, r);
    }
  }
  return result;
}

}  // namespace perfdojo::fuzz
