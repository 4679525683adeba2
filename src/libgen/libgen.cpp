#include "libgen/libgen.h"

#include <cmath>
#include <filesystem>

#include "codegen/c_codegen.h"
#include "rl/perfllm.h"
#include "search/evalcache.h"
#include "search/pass.h"
#include "search/search.h"
#include "support/common.h"
#include "support/io.h"
#include "support/strings.h"

namespace perfdojo::libgen {

const char* optimizerName(Optimizer o) {
  switch (o) {
    case Optimizer::None: return "none";
    case Optimizer::Heuristic: return "heuristic";
    case Optimizer::Search: return "search";
    case Optimizer::PerfLLM: return "perfllm";
  }
  fail("optimizerName: bad optimizer");
}

namespace {

std::string recipeOf(const transform::History& h) {
  std::string out;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const auto& s = h.steps()[i];
    out += s.transform->describe(h.stateBefore(i), s.loc) + "\n";
  }
  return out;
}

}  // namespace

LibraryEntry tuneOne(const kernels::KernelInfo& k, const machines::Machine& m,
                     const LibGenConfig& cfg, search::EvalCache* cache) {
  const ir::Program base = k.build();
  LibraryEntry e;
  e.label = k.label;
  // Every evaluation — the two bookkeeping ones included — goes through the
  // shared memo table, so one kernel's baseline/tuned states are warm for
  // the next kernel (and for any search run that revisits them).
  const auto price = [&](const ir::Program& p) {
    return cache ? cache->evaluate(m, p) : m.evaluate(p);
  };
  e.baseline_runtime = price(base);

  ir::Program tuned = base;
  switch (cfg.optimizer) {
    case Optimizer::None:
      e.recipe = "(reference loops)\n";
      e.evaluations = 1;
      break;
    case Optimizer::Heuristic: {
      auto h = search::heuristicPass(base, m);
      tuned = h.current();
      e.recipe = recipeOf(h);
      e.evaluations = 1;
      break;
    }
    case Optimizer::Search: {
      search::SearchConfig sc;
      sc.budget = cfg.search_budget;
      sc.seed = cfg.seed ^ fnv1a(k.label);
      const auto r = search::runSearch(base, m, sc, cache);
      tuned = r.best;
      e.recipe = "(best of " + std::to_string(r.evals) + " evaluations)\n";
      e.evaluations = r.evals;
      break;
    }
    case Optimizer::PerfLLM: {
      rl::PerfLLMConfig rc;
      rc.episodes = cfg.rl_episodes;
      rc.seed = cfg.seed ^ fnv1a(k.label);
      rc.eval_cache = cache;
      const auto r = rl::optimizeKernel(base, m, rc);
      tuned = r.best;
      e.recipe = "(RL: " + std::to_string(r.evals) + " evaluations, " +
                 std::to_string(r.dqn_updates) + " DQN updates)\n";
      e.evaluations = r.evals;
      break;
    }
  }
  e.tuned_runtime = price(tuned);
  // C symbols must be identifier-safe (labels already are).
  e.signature = codegen::cSignature(tuned, "perfdojo_" + e.label);
  e.source = codegen::generateC(tuned, "perfdojo_" + e.label);
  return e;
}

Library generateLibrary(const std::vector<kernels::KernelInfo>& kernels,
                        const machines::Machine& m, const LibGenConfig& cfg) {
  Library lib;
  lib.machine = m.name();
  // One memo table for the whole library: kernels with shared structure
  // (e.g. the reduction family) revisit each other's transformed states.
  // tuneOne routes *every* optimizer arm through it.
  search::EvalCache cache;
  for (const auto& k : kernels)
    lib.entries.push_back(tuneOne(k, m, cfg, &cache));
  lib.cache_stats = cache.stats();
  return lib;
}

std::string Library::header(const std::string& guard) const {
  std::string out = "/* Generated by PerfDojo for target '" + machine +
                    "'. */\n#ifndef " + guard + "\n#define " + guard +
                    "\n\n#ifdef __cplusplus\nextern \"C\" {\n#endif\n\n";
  for (const auto& e : entries) out += e.signature + ";\n";
  out += "\n#ifdef __cplusplus\n}\n#endif\n#endif /* " + guard + " */\n";
  return out;
}

std::string Library::manifest() const {
  std::string out = "PerfDojo generated library — target: " + machine + "\n\n";
  for (const auto& e : entries) {
    // A zero or non-finite runtime (degenerate model, unmeasured entry) must
    // not print inf/nan into the manifest.
    const bool measurable = std::isfinite(e.baseline_runtime) &&
                            std::isfinite(e.tuned_runtime) &&
                            e.tuned_runtime > 0;
    const std::string speedup =
        measurable ? fmt(e.baseline_runtime / e.tuned_runtime, 4) + "x"
                   : std::string("n/a");
    out += e.label + ": " + fmt(e.baseline_runtime, 4) + "s -> " +
           fmt(e.tuned_runtime, 4) + "s (" + speedup + ", " +
           std::to_string(e.evaluations) + " evaluations)\n";
    for (const auto& line : splitLines(e.recipe))
      if (!line.empty()) out += "    " + line + "\n";
  }
  return out;
}

std::vector<std::string> writeLibrary(const Library& lib, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  std::vector<std::string> written;
  auto put = [&](const std::string& name, const std::string& content) {
    const std::string path = dir + "/" + name;
    // Checked write: a disk-full or I/O error mid-stream must fail loudly,
    // not report the path as written.
    writeTextFile(path, content);
    written.push_back(path);
  };
  put("perfdojo_lib.h", lib.header());
  for (const auto& e : lib.entries) put(e.label + ".c", e.source);
  put("MANIFEST.txt", lib.manifest());
  return written;
}

}  // namespace perfdojo::libgen
