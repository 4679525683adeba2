// Trajectory fuzzer: random walks over the transformation graph from every
// catalog kernel under each machine-caps profile, with the cross-backend
// oracle checked at every step and the codegen layer at trajectory endpoints.
// Failures are shrunk by the delta-debugging minimizer and serialized as
// witness files; a corpus of previously-found witnesses is re-run as
// regression seeds.
//
// Determinism: each trajectory's RNG is derived purely from (config seed,
// kernel label, profile name, trajectory index), so a finding is reproducible
// from its witness regardless of wall-clock budgeting or which other
// trajectories ran.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/minimize.h"
#include "fuzz/oracle.h"
#include "fuzz/witness.h"
#include "transform/transform.h"

namespace perfdojo {
class Telemetry;
}

namespace perfdojo::fuzz {

/// A machine-caps profile under which trajectories are explored, paired with
/// the machine model used by the cache-consistency layer.
struct CapsProfile {
  std::string name;
  transform::MachineCaps caps;
  const machines::Machine* machine = nullptr;
};

/// cpu / gpu / snitch — the three architecture classes of Table 1.
const std::vector<CapsProfile>& capsProfiles();
const CapsProfile* findProfile(const std::string& name);

struct FuzzConfig {
  std::uint64_t seed = 1;
  int max_steps = 12;
  /// Trajectories per (kernel, profile) pair when budget_sec == 0.
  int trajectories = 2;
  /// Wall-clock budget in seconds; > 0 round-robins over (kernel, profile)
  /// pairs with increasing trajectory indices until it expires.
  double budget_sec = 0;
  std::vector<std::string> kernels;   // empty = Table 3 + Snitch micro
  std::vector<std::string> profiles;  // empty = every capsProfiles() entry
  OracleOptions oracle;
  /// Run the codegen layer on each trajectory's final program even when
  /// oracle.check_codegen is off per-step (one compiler run per trajectory).
  bool codegen_final = true;
  /// Shrink failing trajectories before reporting.
  bool minimize = true;
  /// Directory for one .witness file per finding ("" = don't write).
  std::string witness_dir;
  /// Transform library to draw actions from; empty = allTransforms(). Tests
  /// append a deliberately mis-detecting transform here (the meta-test).
  std::vector<const transform::Transform*> transforms;
  /// Optional JSONL sink: one "fuzz_trajectory" event per walk and one
  /// "fuzz_finding" event per recorded (deduplicated) finding.
  Telemetry* telemetry = nullptr;
};

struct Finding {
  Witness witness;      // minimized when cfg.minimize
  OracleReport report;  // failure of the (minimized) trajectory
  std::string file;     // path under witness_dir, if written
};

struct FuzzStats {
  std::int64_t trajectories = 0;
  std::int64_t steps = 0;
  std::int64_t oracle_checks = 0;
  std::int64_t minimizer_runs = 0;
  double wall_sec = 0;
};

struct FuzzResult {
  std::vector<Finding> findings;
  FuzzStats stats;
  bool ok() const { return findings.empty(); }
};

FuzzResult runFuzz(const FuzzConfig& cfg);

/// Re-executes one witness: replays its steps from the kernel, then runs
/// every oracle layer that `opts` enables, plus the layer the witness names
/// (codegen included), on the final program. A step that throws or no
/// longer applies is reported as OracleLayer::Apply.
OracleReport runWitness(const Witness& w, const OracleOptions& opts);

struct CorpusResult {
  int total = 0;
  std::vector<std::pair<std::string, OracleReport>> failures;
  bool ok() const { return failures.empty(); }
};

/// Re-runs every *.witness under `dir` as a regression seed (all expected to
/// pass once their underlying bugs are fixed).
CorpusResult runCorpus(const std::string& dir, const OracleOptions& opts,
                       const TransformResolver& resolve = {});

}  // namespace perfdojo::fuzz
