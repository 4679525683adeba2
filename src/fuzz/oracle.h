// The cross-backend oracle of the differential-fuzzing subsystem.
//
// Each enabled layer checks one agreement the rest of the system silently
// assumes (cheapest first, so a broken transform is attributed to the most
// fundamental violated contract):
//   apply      — a transform threw on a location its own findApplicable
//                offered (checked by the fuzzer while walking, and by
//                runWitness during replay)
//   interp     — interpreter output equivalence vs the untransformed program
//                (the paper's semantic-preservation guarantee)
//   roundtrip  — parse(print(p)) is canonically identical to p, with stable
//                canonical text and hash
//   incremental-hash — a canonical hash maintained incrementally across the
//                walk's in-place mutations (ir::CanonicalArena rebased from
//                each transform's MutationSummary) agrees bit-for-bit with a full
//                re-render; a divergence means a transform under-reports its
//                mutation footprint and delta search would go stale
//   cache      — EvalCache::selfCheck: full-render vs arena-bind hash
//                agreement and memoized cost vs a fresh machine-model
//                evaluation
//   arena-delta — search::DeltaContext prices each walk step's (base,
//                action) pair, which must agree bit-for-bit with
//                ir::canonicalHash(action.apply(base)), then commits the
//                step while it is still applied from that pricing, and the
//                committed base must hash and render to the same value. A
//                divergence means delta-hashed search would key the memo
//                table wrong or walk from a wrong state (checked by the fuzz
//                walk and by runWitness during replay, like the apply layer)
//   codegen    — compiled generateC() output agrees with the interpreter on
//                the same random inputs (expensive: invokes the system C
//                compiler; the fuzzer runs it on trajectory endpoints)
#pragma once

#include <cstdint>
#include <string>

#include "ir/program.h"
#include "machines/machine.h"
#include "search/evalcache.h"
#include "verify/verifier.h"

namespace perfdojo::fuzz {

enum class OracleLayer { None, Apply, Interp, RoundTrip, IncHash, Cache,
                         ArenaDelta, Codegen };

const char* oracleLayerName(OracleLayer l);

struct OracleOptions {
  verify::VerifyOptions verify;   // interp tolerances + random-input seed
  bool check_interp = true;
  bool check_roundtrip = true;
  bool check_incremental = true;
  bool check_cache = true;
  bool check_arena = true;        // delta neighbor hash vs copy-and-hash
  bool check_codegen = false;     // compiles with the system C compiler
  double codegen_rel_tol = 1e-3;  // compiled f32 arithmetic vs f64 interpreter
  double codegen_abs_tol = 1e-5;
};

struct OracleReport {
  bool ok = true;
  OracleLayer layer = OracleLayer::None;  // first failing layer
  std::string detail;
};

/// Runs every enabled layer on `transformed` (against `original` for the
/// interp layer) and returns the first failure. `cache` may be shared across
/// many checks — that is what lets the cache layer catch cross-program
/// canonical-hash collisions; nullptr skips the cache layer.
/// `incremental_hash`, if given, is a canonical hash the caller maintained
/// incrementally across its mutations of `transformed` (e.g. the fuzz walk's
/// CanonicalArena rebased per step); the incremental-hash layer checks
/// it against a full re-render. nullptr skips that layer.
OracleReport checkOracle(const ir::Program& original,
                         const ir::Program& transformed,
                         const machines::Machine& machine,
                         search::EvalCache* cache, const OracleOptions& opts,
                         const std::uint64_t* incremental_hash = nullptr);

/// The codegen layer alone (used on trajectory endpoints). Compiles
/// generateC(p), runs it on the same random inputs as the interpreter, and
/// compares outputs element-wise under the codegen tolerances.
OracleReport checkCodegenAgreement(const ir::Program& p,
                                   const OracleOptions& opts);

}  // namespace perfdojo::fuzz
