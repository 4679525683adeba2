#include "fuzz/oracle.h"

#include <vector>

#include "codegen/c_runner.h"
#include "interp/interpreter.h"
#include "ir/canonical.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/common.h"

namespace perfdojo::fuzz {

const char* oracleLayerName(OracleLayer l) {
  switch (l) {
    case OracleLayer::None: return "none";
    case OracleLayer::Apply: return "apply";
    case OracleLayer::Interp: return "interp";
    case OracleLayer::RoundTrip: return "roundtrip";
    case OracleLayer::IncHash: return "incremental-hash";
    case OracleLayer::Cache: return "cache";
    case OracleLayer::ArenaDelta: return "arena-delta";
    case OracleLayer::Codegen: return "codegen";
  }
  return "?";
}

namespace {

OracleReport failAt(OracleLayer layer, std::string detail) {
  OracleReport r;
  r.ok = false;
  r.layer = layer;
  r.detail = std::move(detail);
  return r;
}

OracleReport checkRoundTrip(const ir::Program& p) {
  std::string text;
  try {
    text = ir::printProgram(p);
    const ir::Program q = ir::parseProgram(text);
    if (!ir::canonicallyEqual(p, q))
      return failAt(OracleLayer::RoundTrip,
                    "parse(print(p)) is not canonically equal to p");
    if (ir::canonicalText(q) != ir::canonicalText(p))
      return failAt(OracleLayer::RoundTrip,
                    "canonical text differs after a parse/print round trip");
    if (ir::canonicalHash(q) != ir::canonicalHash(p))
      return failAt(OracleLayer::RoundTrip,
                    "canonical hash differs after a parse/print round trip");
  } catch (const Error& e) {
    return failAt(OracleLayer::RoundTrip,
                  std::string("printed program failed to re-parse: ") +
                      e.what());
  }
  return {};
}

}  // namespace

OracleReport checkCodegenAgreement(const ir::Program& p,
                                   const OracleOptions& opts) {
  if (!codegen::haveCCompiler()) return {};  // nothing to differ against
  codegen::CompileOutcome co;
  const auto kernel = codegen::compileForRun(p, co);
  if (!co.ok)
    return failAt(OracleLayer::Codegen,
                  "generated C failed to compile/load: " + co.message);

  // Reference run, then feed the identical inputs to the compiled kernel.
  const auto ref = interp::runWithRandomInputs(p, opts.verify.seed);
  std::vector<std::vector<float>> f32;
  std::vector<std::vector<double>> f64;
  std::vector<void*> args;
  std::vector<std::size_t> out_slot;  // (is_f32, index) packed by parity
  std::vector<bool> out_is_f32;
  auto marshal = [&](const std::string& array, bool zero) -> bool {
    const ir::Buffer* b = p.bufferOfArray(array);
    const auto& data = ref.mem.byArray(array).data();
    if (b->dtype == ir::DType::F32) {
      f32.emplace_back(data.size());
      if (!zero) f32.back().assign(data.begin(), data.end());
      return true;
    }
    if (b->dtype == ir::DType::F64) {
      f64.emplace_back(data.size());
      if (!zero) f64.back() = data;
      return false;
    }
    fail("codegen oracle: unsupported dtype on '" + array + "'");
  };
  for (const auto& in : p.inputs) marshal(in, false);
  for (const auto& out : p.outputs) {
    const bool is_f32 = marshal(out, true);
    out_is_f32.push_back(is_f32);
    out_slot.push_back(is_f32 ? f32.size() - 1 : f64.size() - 1);
  }
  // Pointers are collected only after all buffers exist: the vectors above
  // must not reallocate once addresses are taken.
  std::size_t i32 = 0, i64 = 0;
  for (const auto& in : p.inputs) {
    const ir::Buffer* b = p.bufferOfArray(in);
    args.push_back(b->dtype == ir::DType::F32 ? (void*)f32[i32++].data()
                                              : (void*)f64[i64++].data());
  }
  for (std::size_t oi = 0; oi < p.outputs.size(); ++oi)
    args.push_back(out_is_f32[oi] ? (void*)f32[out_slot[oi]].data()
                                  : (void*)f64[out_slot[oi]].data());
  kernel.call(args);

  for (std::size_t oi = 0; oi < p.outputs.size(); ++oi) {
    const auto& expect = ref.mem.byArray(p.outputs[oi]).data();
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const double got = out_is_f32[oi]
                             ? static_cast<double>(f32[out_slot[oi]][i])
                             : f64[out_slot[oi]][i];
      if (!verify::valuesClose(got, expect[i], opts.codegen_rel_tol,
                               opts.codegen_abs_tol))
        return failAt(OracleLayer::Codegen,
                      "compiled output " + p.outputs[oi] + "[" +
                          std::to_string(i) + "] = " + std::to_string(got) +
                          ", interpreter says " + std::to_string(expect[i]) +
                          " (seed " + std::to_string(opts.verify.seed) + ")");
    }
  }
  return {};
}

OracleReport checkOracle(const ir::Program& original,
                         const ir::Program& transformed,
                         const machines::Machine& machine,
                         search::EvalCache* cache, const OracleOptions& opts,
                         const std::uint64_t* incremental_hash) {
  if (opts.check_interp) {
    const auto r = verify::verifyEquivalent(original, transformed, opts.verify);
    if (!r.equivalent) return failAt(OracleLayer::Interp, r.detail);
  }
  if (opts.check_roundtrip) {
    auto r = checkRoundTrip(transformed);
    if (!r.ok) return r;
  }
  if (opts.check_incremental && incremental_hash) {
    const std::uint64_t full = ir::canonicalHash(transformed);
    if (*incremental_hash != full)
      return failAt(OracleLayer::IncHash,
                    "incrementally maintained canonical hash " +
                        std::to_string(*incremental_hash) +
                        " != full re-render " + std::to_string(full) +
                        " (a transform under-reported its mutation summary)");
  }
  if (opts.check_cache && cache) {
    std::string detail;
    if (!cache->selfCheck(machine, transformed, &detail))
      return failAt(OracleLayer::Cache, detail);
  }
  if (opts.check_codegen) {
    auto r = checkCodegenAgreement(transformed, opts);
    if (!r.ok) return r;
  }
  return {};
}

}  // namespace perfdojo::fuzz
